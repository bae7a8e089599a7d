package main

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
)

func TestWriteCSV(t *testing.T) {
	dir := t.TempDir()
	tb := experiments.Table{
		ID:     "figX",
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1", "2"}},
	}
	if err := writeCSV(dir, "figX", 0, &tb); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "figX_0.csv"))
	if err != nil {
		t.Fatal(err)
	}
	got := strings.TrimSpace(string(data))
	if got != "a,b\n1,2" {
		t.Fatalf("csv content %q", got)
	}
}

func TestWriteCSVCreatesDirectory(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "deeper")
	tb := experiments.Table{ID: "t", Header: []string{"x"}, Rows: [][]string{{"1"}}}
	if err := writeCSV(dir, "t", 3, &tb); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "t_3.csv")); err != nil {
		t.Fatal(err)
	}
}

// failAfter accepts n bytes and then fails every write.
type failAfter struct{ n int }

func (w *failAfter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		k := w.n
		w.n = 0
		return k, errors.New("disk full")
	}
	w.n -= len(p)
	return len(p), nil
}

// A short write is an error, never a success: Table.CSV returns the
// writer's first error, and writeCSV reports a file that could not be
// written in full.
func TestWriteCSVReportsShortWrite(t *testing.T) {
	tb := experiments.Table{ID: "t", Header: []string{"x", "y"}, Rows: [][]string{{"1", "2"}, {"3", "4"}}}
	if err := tb.CSV(&failAfter{n: 5}); err == nil {
		t.Fatal("CSV into a failing writer reported success")
	}

	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	dir := t.TempDir()
	if err := os.Symlink("/dev/full", filepath.Join(dir, "t_0.csv")); err != nil {
		t.Fatal(err)
	}
	if err := writeCSV(dir, "t", 0, &tb); err == nil {
		t.Fatal("writeCSV into a full device reported success")
	}
}
