package durable

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// refScan is ScanLog's reference: split at every '\n', drop the torn
// last piece, skip blank lines, stop at the first rejected one.
func refScan(data []byte, accept func([]byte) bool) (lines [][]byte, keep int64) {
	for off := 0; ; {
		i := bytes.IndexByte(data[off:], '\n')
		if i < 0 {
			return lines, keep
		}
		line := bytes.TrimSpace(data[off : off+i])
		off += i + 1
		if len(line) == 0 {
			continue
		}
		if !accept(line) {
			return lines, keep
		}
		lines = append(lines, bytes.Clone(line))
		keep = int64(off)
	}
}

// scan collects what ScanLog passes to fn.
func scan(t *testing.T, r io.Reader, accept func([]byte) bool) ([][]byte, int64) {
	t.Helper()
	var lines [][]byte
	keep, err := ScanLog(r, func(line []byte) bool {
		if !accept(line) {
			return false
		}
		lines = append(lines, bytes.Clone(line))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return lines, keep
}

// FuzzScanLog checks ScanLog against refScan for any bytes and a callback
// that rejects lines starting with bad, then checks that keep is a cut a
// log can be appended at: it ends a line, rescanning up to it accepts the
// same lines, and a whole line appended there by AppendLog is the next
// line accepted.
func FuzzScanLog(f *testing.F) {
	f.Add([]byte(""), byte('x'))
	f.Add([]byte("a\nb"), byte('x'))
	f.Add([]byte("{\"k\":1}\n\n  \r\n{\"k\":2}\nx\n{\"k\":3}\n"), byte('x'))
	f.Add([]byte("a\nb\nc\n{\"torn"), byte('c'))
	f.Fuzz(func(t *testing.T, data []byte, bad byte) {
		accept := func(line []byte) bool { return line[0] != bad }
		want, wantKeep := refScan(data, accept)
		got, keep := scan(t, bytes.NewReader(data), accept)
		if keep != wantKeep || !reflect.DeepEqual(got, want) {
			t.Fatalf("ScanLog: %q keep %d, reference %q keep %d", got, keep, want, wantKeep)
		}
		if keep > 0 && data[keep-1] != '\n' {
			t.Fatalf("keep %d does not end a line", keep)
		}
		if again, k := scan(t, bytes.NewReader(data[:keep]), accept); k != keep || !reflect.DeepEqual(again, got) {
			t.Fatalf("rescanning data[:keep]: %q keep %d, first scan %q keep %d", again, k, got, keep)
		}

		next := []byte("{next}")
		if next[0] == bad {
			next[0] = '['
		}
		path := filepath.Join(t.TempDir(), "log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := AppendLog(path, keep)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.Write(append(next, '\n')); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		after, k := scan(t, r, accept)
		if k != keep+int64(len(next)+1) || !reflect.DeepEqual(after, append(got, next)) {
			t.Fatalf("after appending %q at keep %d: %q keep %d", next, keep, after, k)
		}
	})
}

// TestReplace: Replace leaves the new contents and no temp file. One that
// fails — here the rename, over a non-empty directory — removes its temp
// file and leaves what was at the path.
func TestReplace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	for _, want := range []string{"old", "new"} {
		if err := Replace(path, []byte(want)); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != want {
			t.Fatalf("file holds %q (err %v), want %q", got, err, want)
		}
	}
	blocked := filepath.Join(dir, "d")
	if err := os.MkdirAll(filepath.Join(blocked, "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := Replace(blocked, []byte("new")); err == nil {
		t.Fatal("Replace over a non-empty directory succeeded")
	}
	if _, err := os.Stat(filepath.Join(blocked, "x")); err != nil {
		t.Errorf("the failed Replace disturbed what was at its path: %v", err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 2 {
		t.Errorf("%d entries in the directory, want the file and the directory alone", len(entries))
	}
}
