//go:build !unix

package service

import "os/exec"

// setProcGroup is a no-op where process groups are unavailable.
func setProcGroup(cmd *exec.Cmd) {}

// killGroup kills the immediate child process; grandchild cleanup is
// best-effort without process groups.
func killGroup(cmd *exec.Cmd) error {
	if cmd.Process == nil {
		return nil
	}
	return cmd.Process.Kill()
}
