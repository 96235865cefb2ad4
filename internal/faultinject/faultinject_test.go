package faultinject

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestOSPassthrough(t *testing.T) {
	dir := t.TempDir()
	fsys := OS()
	if err := fsys.MkdirAll(filepath.Join(dir, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	f, err := fsys.CreateTemp(dir, "t-*.tmp")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	dst := filepath.Join(dir, "final")
	if err := fsys.Rename(f.Name(), dst); err != nil {
		t.Fatal(err)
	}
	data, err := fsys.ReadFile(dst)
	if err != nil || string(data) != "hello" {
		t.Fatalf("ReadFile = %q, %v", data, err)
	}
	ents, err := fsys.ReadDir(dir)
	if err != nil || len(ents) != 2 {
		t.Fatalf("ReadDir = %d entries, %v", len(ents), err)
	}
	if err := fsys.Remove(dst); err != nil {
		t.Fatal(err)
	}
}

func TestFailAtExactTrigger(t *testing.T) {
	dir := t.TempDir()
	f := NewFaulty(OS(), 1)
	f.FailAt(OpRead, 2, nil)
	path := filepath.Join(dir, "x")
	if err := os.WriteFile(path, []byte("v"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadFile(path); err != nil {
		t.Fatalf("read 1 should pass: %v", err)
	}
	if _, err := f.ReadFile(path); !errors.Is(err, ErrInjected) {
		t.Fatalf("read 2 should fail injected, got %v", err)
	}
	if _, err := f.ReadFile(path); err != nil {
		t.Fatalf("read 3 should pass: %v", err)
	}
	if got := f.Injected()[OpRead]; got != 1 {
		t.Fatalf("injected reads = %d, want 1", got)
	}
}

func TestCrashAtRenameLeavesTempAndFreezes(t *testing.T) {
	dir := t.TempDir()
	f := NewFaulty(OS(), 1)
	f.CrashAt(OpRename, 1)

	tmp, err := f.CreateTemp(dir, "put-*.tmp")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tmp.Write([]byte("payload")); err != nil {
		t.Fatal(err)
	}
	if err := tmp.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Rename(tmp.Name(), filepath.Join(dir, "entry")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("rename should crash, got %v", err)
	}
	// The dead process's cleanup (remove-on-error) must also fail, so the
	// temp file survives, exactly as after a SIGKILL.
	if err := f.Remove(tmp.Name()); !errors.Is(err, ErrCrashed) {
		t.Fatalf("remove after crash should fail, got %v", err)
	}
	if !f.Crashed() {
		t.Fatal("not marked crashed")
	}
	if _, err := os.Stat(tmp.Name()); err != nil {
		t.Fatalf("temp file should survive the crash: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "entry")); !os.IsNotExist(err) {
		t.Fatalf("entry must not exist after crash-before-rename: %v", err)
	}
}

func TestPartialWrite(t *testing.T) {
	dir := t.TempDir()
	f := NewFaulty(OS(), 1)
	f.FailAt(OpWrite, 1, nil)
	tmp, err := f.CreateTemp(dir, "t-*.tmp")
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("0123456789")
	if _, err := tmp.Write(payload); err == nil {
		t.Fatal("write should fail")
	}
	tmp.Close()
	data, err := os.ReadFile(tmp.Name())
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != len(payload)/2 {
		t.Fatalf("partial write left %d bytes, want %d", len(data), len(payload)/2)
	}
}

func TestSeededRateIsDeterministic(t *testing.T) {
	run := func(seed uint64) []bool {
		f := NewFaulty(OS(), seed)
		f.SetRate(OpRead, 0.5)
		out := make([]bool, 64)
		for i := range out {
			_, err := f.ReadFile("/nonexistent-path-for-schedule")
			out[i] = errors.Is(err, ErrInjected)
		}
		return out
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedule diverged at op %d", i)
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
	faults := 0
	for _, hit := range a {
		if hit {
			faults++
		}
	}
	if faults == 0 || faults == len(a) {
		t.Fatalf("rate 0.5 injected %d/%d faults", faults, len(a))
	}
}
