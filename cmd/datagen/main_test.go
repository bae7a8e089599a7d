package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// A rejected flag must not touch the output: datagen validates -format
// and -kind before it generates anything or truncates -out.
func TestBadFlagLeavesExistingFileIntact(t *testing.T) {
	out := filepath.Join(t.TempDir(), "existing.gob")
	want := []byte("an earlier dataset\n")
	if err := os.WriteFile(out, want, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-out", out, "-format", "xml"},
		{"-out", out, "-kind", "flickr"},
	} {
		var stderr bytes.Buffer
		if code := run(args, io.Discard, &stderr); code != 2 {
			t.Fatalf("%v: exit %d, want 2 (stderr %q)", args, code, stderr.String())
		}
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%v rewrote the existing file: %q", args, got)
		}
	}
}

func TestWritesBothFormats(t *testing.T) {
	dir := t.TempDir()
	for _, format := range []string{"gob", "csv"} {
		out := filepath.Join(dir, "d."+format)
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-size", "200", "-dim", "8", "-out", out, "-format", format}, &stdout, &stderr); code != 0 {
			t.Fatalf("%s: exit %d: %s", format, code, stderr.String())
		}
		if fi, err := os.Stat(out); err != nil || fi.Size() == 0 {
			t.Fatalf("%s: output missing or empty: %v", format, err)
		}
	}
}

// A write that cannot complete is reported with exit 1, not "wrote …".
func TestShortWriteFails(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-size", "200", "-dim", "8", "-out", "/dev/full"}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1 (stdout %q)", code, stdout.String())
	}
	if stdout.Len() != 0 {
		t.Fatalf("reported success: %q", stdout.String())
	}
}
