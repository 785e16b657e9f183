//go:build unix

package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"syscall"
	"testing"
	"time"
)

// interruptChildEnv switches the test binary into the child role of
// TestInterruptKillsFigure: it runs main as `abivm -scale 0.5 fig4`.
const interruptChildEnv = "ABIVM_INTERRUPT_CHILD"

// TestInterruptKillsFigure: a figure command installs no interrupt
// handler, so Ctrl-C kills it the way it kills any Go program, before
// it prints its table. The test re-executes its own binary as one child
// running main, waits until the child has entered main, sends SIGINT
// and requires the child to die by that signal with nothing on stdout.
// `-scale 0.5 fig4` runs for seconds, so a child that ignored the
// signal would print its whole table and exit 0.
func TestInterruptKillsFigure(t *testing.T) {
	if os.Getenv(interruptChildEnv) == "1" {
		os.Args = []string{"abivm", "-scale", "0.5", "fig4"}
		fmt.Fprintln(os.Stderr, "ready")
		main()
		os.Exit(0)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestInterruptKillsFigure$")
	cmd.Env = append(os.Environ(), interruptChildEnv+"=1")
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(stderr)
	if line, err := r.ReadString('\n'); line != "ready\n" {
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatalf("child's first stderr line = %q (%v), want \"ready\"", line, err)
	}
	// Give main time to get past flag parsing into the figure's work,
	// where a handler, had one been installed, would swallow the signal.
	time.Sleep(200 * time.Millisecond)
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	rest, _ := io.ReadAll(r)
	err = cmd.Wait()
	var exit *exec.ExitError
	if !errors.As(err, &exit) {
		t.Fatalf("child exited cleanly after SIGINT (err %v); stdout:\n%s", err, stdout.Bytes())
	}
	if ws, ok := exit.Sys().(syscall.WaitStatus); !ok || !ws.Signaled() || ws.Signal() != syscall.SIGINT {
		t.Fatalf("child ended with %v, want death by SIGINT; stderr:\n%s", err, rest)
	}
	if stdout.Len() != 0 {
		t.Fatalf("child printed output before dying:\n%s", stdout.Bytes())
	}
}
