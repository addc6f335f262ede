//go:build unix

package service

import (
	"os/exec"
	"syscall"
)

// setProcGroup puts a child in its own process group, so killGroup
// reaches every descendant a template child spawned — not just the
// immediate `sh -c`.
func setProcGroup(cmd *exec.Cmd) {
	if cmd.SysProcAttr == nil {
		cmd.SysProcAttr = &syscall.SysProcAttr{}
	}
	cmd.SysProcAttr.Setpgid = true
	setParentDeathSignal(cmd.SysProcAttr)
}

// killGroup SIGKILLs the child's whole process group, falling back to
// the process alone when the group is already gone.
func killGroup(cmd *exec.Cmd) error {
	if cmd.Process == nil {
		return nil
	}
	if err := syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL); err == nil {
		return nil
	}
	return cmd.Process.Kill()
}
