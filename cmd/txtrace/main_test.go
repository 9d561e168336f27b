package main

import (
	"bytes"
	"encoding/binary"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/trace"
)

// buildTxtrace compiles the command once per test into a temp dir.
func buildTxtrace(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "txtrace")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("building txtrace: %v\n%s", err, out)
	}
	return bin
}

// writeTraceFile serializes a tiny trace in the given wire version and
// returns the raw bytes and a path holding the first n bytes of them.
func writeTraceFile(t *testing.T, dir string, v1 bool, cut int) (string, int) {
	t.Helper()
	tr := trace.FromEvents("clipped",
		trace.Event{Kind: trace.KFork, TID: 0, Other: 1},
		trace.Event{Kind: trace.KAccess, TID: 1, Write: true, Site: 3, Addr: 0x40},
		trace.Event{Kind: trace.KAccess, TID: 0, Site: 4, Addr: 0x40},
	)
	var buf bytes.Buffer
	var err error
	if v1 {
		_, err = tr.WriteToV1(&buf)
	} else {
		_, err = tr.WriteTo(&buf)
	}
	if err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if cut > 0 {
		raw = raw[:len(raw)-cut]
	}
	path := filepath.Join(dir, "in.trace")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path, len(raw)
}

// TestAnalyzeRejectsCorruptTraces pins the CLI contract of the hardening
// satellite: txtrace -in on a garbage or truncated file exits non-zero with
// a single stderr line naming the wire version and byte offset of the
// failure — never a panic, never a silent short read reported as success.
func TestAnalyzeRejectsCorruptTraces(t *testing.T) {
	bin := buildTxtrace(t)
	dir := t.TempDir()

	garbage := filepath.Join(dir, "garbage.trace")
	if err := os.WriteFile(garbage, []byte("definitely not a trace"), 0o644); err != nil {
		t.Fatal(err)
	}
	v1path, _ := writeTraceFile(t, t.TempDir(), true, 13) // cut mid-record
	v2path, _ := writeTraceFile(t, t.TempDir(), false, 2) // cut mid-record

	// A well-formed v1 trace whose one access claims thread id -5: the
	// decoder must refuse it before any detector indexes a clock by it.
	var hostile bytes.Buffer
	if _, err := trace.FromEvents("h", trace.Event{Kind: trace.KAccess, Site: 1, Addr: 0x40}).WriteToV1(&hostile); err != nil {
		t.Fatal(err)
	}
	negTID := filepath.Join(dir, "negtid.trace")
	raw := hostile.Bytes()
	binary.LittleEndian.PutUint32(raw[len(raw)-28+4:], 0xfffffffb) // record's tid field
	if err := os.WriteFile(negTID, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		path string
		args []string
		want []string
	}{
		{"garbage", garbage, nil, []string{"txtrace:", "bad magic"}},
		{"truncated-v1", v1path, nil, []string{"txtrace:", "wire v1", "offset", "unexpected EOF"}},
		{"truncated-v2", v2path, nil, []string{"txtrace:", "wire v2", "offset", "unexpected EOF"}},
		{"negative-tid-shards1", negTID, nil, []string{"txtrace:", "wire v1", "event 0", "thread id -5 out of range"}},
		{"negative-tid-shards2", negTID, []string{"-shards", "2"}, []string{"txtrace:", "wire v1", "event 0", "thread id -5 out of range"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cmd := exec.Command(bin, append([]string{"-in", tc.path}, tc.args...)...)
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			ee, ok := err.(*exec.ExitError)
			if !ok || ee.ExitCode() != 1 {
				t.Fatalf("exit = %v, want exit code 1\nstderr: %s", err, stderr.String())
			}
			msg := strings.TrimSuffix(stderr.String(), "\n")
			if strings.ContainsRune(msg, '\n') {
				t.Fatalf("stderr is not one line:\n%s", stderr.String())
			}
			for _, want := range tc.want {
				if !strings.Contains(msg, want) {
					t.Fatalf("stderr %q lacks %q", msg, want)
				}
			}
			if strings.Contains(stderr.String(), "panic") {
				t.Fatalf("command panicked:\n%s", stderr.String())
			}
		})
	}

	// Control: the untruncated trace analyzes cleanly.
	good, _ := writeTraceFile(t, t.TempDir(), false, 0)
	out, err := exec.Command(bin, "-in", good).CombinedOutput()
	if err != nil {
		t.Fatalf("valid trace rejected: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "happens-before:") {
		t.Fatalf("analyze output missing detector line:\n%s", out)
	}
}
