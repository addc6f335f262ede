//go:build unix && !linux

package service

import "syscall"

// setParentDeathSignal is a no-op where the kernel has no parent-death
// signal; an orphaned child keeps polling until killed.
func setParentDeathSignal(*syscall.SysProcAttr) {}
