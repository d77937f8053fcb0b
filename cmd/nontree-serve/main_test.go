package main

import (
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// startDaemon runs realMain in a goroutine with an ephemeral port and waits
// for the ready file, returning the listen address and the exit channel.
// The test registers its own SIGTERM handler first so the self-signal used
// to stop the daemon can never hit the default action (killing the test
// binary) if it lands before realMain installs its handler.
func startDaemon(t *testing.T, extra ...string) (string, chan error) {
	t.Helper()
	hold := make(chan os.Signal, 1)
	signal.Notify(hold, syscall.SIGTERM)
	t.Cleanup(func() { signal.Stop(hold) })

	ready := filepath.Join(t.TempDir(), "ready")
	args := append([]string{"-addr", "127.0.0.1:0", "-ready-file", ready}, extra...)
	errc := make(chan error, 1)
	go func() { errc <- realMain(args) }()

	deadline := time.Now().Add(10 * time.Second)
	for {
		raw, err := os.ReadFile(ready)
		if err == nil {
			addr := strings.TrimSuffix(string(raw), "\n")
			if addr == string(raw) {
				t.Fatalf("ready file %q is not newline-terminated", raw)
			}
			if _, _, err := net.SplitHostPort(addr); err != nil {
				t.Fatalf("ready file holds %q, not host:port: %v", addr, err)
			}
			return addr, errc
		}
		select {
		case err := <-errc:
			t.Fatalf("daemon exited before becoming ready: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon never wrote its ready file")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServeReadyFileAndSigtermDrain is the daemon lifecycle end to end:
// ephemeral port, ready-file discovery, live /healthz, clean exit on
// SIGTERM.
func TestServeReadyFileAndSigtermDrain(t *testing.T) {
	addr, errc := startDaemon(t)

	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz = %d before drain, want 200", resp.StatusCode)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("SIGTERM drain exited with: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not exit after SIGTERM")
	}
}

// TestServeFlagErrors covers the startup rejection paths.
func TestServeFlagErrors(t *testing.T) {
	// Occupy a port so the bind failure is deterministic.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	cases := []struct {
		name string
		args []string
		want string
	}{
		{"unknown-flag", []string{"-bogus"}, "flag provided but not defined"},
		{"positional", []string{"-addr", "127.0.0.1:0", "extra"}, "unexpected arguments"},
		{"bad-addr", []string{"-addr", "not an address"}, "listen"},
		{"port-taken", []string{"-addr", ln.Addr().String()}, "address already in use"},
		{"ready-file-unwritable", []string{"-addr", "127.0.0.1:0", "-ready-file", filepath.Join(t.TempDir(), "no", "such", "dir", "ready")}, "writing ready file"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := realMain(tc.args)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want mention of %q", err, tc.want)
			}
		})
	}
}

// TestWriteReadyFileRenamesIntoPlace: the ready file holds the address and
// a newline, replaces an earlier one, and leaves no temporary file behind.
func TestWriteReadyFileRenamesIntoPlace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "addr.txt")
	for _, addr := range []string{"127.0.0.1:4242", "[::1]:80"} {
		if err := writeReadyFile(path, addr); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(raw) != addr+"\n" {
			t.Fatalf("ready file holds %q, want %q", raw, addr+"\n")
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 {
			var names []string
			for _, e := range entries {
				names = append(names, e.Name())
			}
			t.Fatalf("directory holds %v, want only addr.txt", names)
		}
	}
}
