package service

import "syscall"

// setParentDeathSignal has the kernel SIGKILL a child when its driver
// dies, so a SIGKILLed driver leaves no pull child polling a dead queue.
func setParentDeathSignal(attr *syscall.SysProcAttr) { attr.Pdeathsig = syscall.SIGKILL }
