package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cosoft/internal/eventlog"
	"cosoft/internal/wire"
)

// TestMain runs cosoftd's main instead of the tests when the test binary is
// started as `<binary> cosoftd <flags>`, so a test can watch the command
// exit.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "cosoftd" {
		os.Args = os.Args[1:]
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// cosoftd runs the command with args and returns its exit code and stderr;
// one still running after 10 s is killed, and reads -1.
func cosoftd(t *testing.T, args ...string) (int, string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], append([]string{"cosoftd"}, args...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	return cmd.ProcessState.ExitCode(), stderr.String()
}

// Start-up and -log-fsck give one verdict on a log directory: on a segment
// chain with a gap both exit 1 and name the gap, so start-up never serves
// the records before the gap as the whole log.
func TestStartupAndFsckAgree(t *testing.T) {
	dir := t.TempDir()
	l, err := eventlog.Open(eventlog.Options{Dir: dir, Sync: eventlog.SyncNone, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		rec := eventlog.Record{Kind: eventlog.KindDeclare, Origin: "app-1", Env: wire.Envelope{Msg: wire.Declare{Path: "/x", Class: "textfield"}}}
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) < 3 {
		t.Fatalf("%d files in the log directory, %v; want at least 3 segments", len(entries), err)
	}
	if err := os.Remove(filepath.Join(dir, entries[1].Name())); err != nil {
		t.Fatal(err)
	}
	rep, err := eventlog.Fsck(dir)
	if err != nil || !rep.Corrupt {
		t.Fatalf("Fsck: %+v, %v; want corrupt", rep, err)
	}
	for _, args := range [][]string{
		{"-log-fsck", dir},
		{"-log-dir", dir, "-listen", "127.0.0.1:0"},
	} {
		code, stderr := cosoftd(t, args...)
		if code != 1 || !strings.Contains(stderr, rep.Detail) {
			t.Fatalf("cosoftd %s: exit %d, stderr %q; want exit 1 naming %q", strings.Join(args, " "), code, stderr, rep.Detail)
		}
	}
}
