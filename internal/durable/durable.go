// Package durable is the one way the harness and the service write files,
// in one of two shapes:
//
//   - a log: whole '\n'-terminated lines, each handed to the OS in one
//     Write, so a kill leaves at most one torn last line. ScanLog stops
//     before it and AppendLog cuts it off before appending.
//   - a replaced file: Replace writes a temp file beside it and renames
//     that over it, so a kill leaves the old file or the new one, and at
//     worst a stray temp file.
//
// Neither syncs: both survive a process kill, not a power loss. A caller
// that needs more syncs itself.
package durable

import (
	"bufio"
	"bytes"
	"io"
	"os"
	"sync/atomic"
)

// TempSuffix names the temp file Replace writes beside path.
const TempSuffix = ".tmp"

// ScanLog calls fn with each whole, non-blank line of r, trimmed of
// surrounding white space, until a last line without '\n' (a torn tail)
// or the first line fn rejects. keep is the offset just past the last
// line fn accepted. A line may reach 256 MiB; the buffer grows on demand.
func ScanLog(r io.Reader, fn func(line []byte) bool) (keep int64, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 256<<20)
	sc.Split(func(data []byte, atEOF bool) (int, []byte, error) {
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			return i + 1, data[:i], nil
		}
		return 0, nil, nil // at EOF, a torn tail ends the scan
	})
	for end := int64(0); sc.Scan(); {
		end += int64(len(sc.Bytes()) + 1)
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			if !fn(line) {
				return keep, nil
			}
			keep = end
		}
	}
	return keep, sc.Err()
}

// Log is an append handle on a log file.
type Log struct{ *os.File }

// AppendLog opens the log at path for appending, creating it if absent,
// after cutting it to its first keep bytes: a keep ScanLog returned, or 0.
func AppendLog(path string, keep int64) (*Log, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(keep); err != nil {
		f.Close()
		return nil, err
	}
	return &Log{f}, nil
}

// Write appends p, whole lines, in one write.
func (l *Log) Write(p []byte) (int, error) {
	n, err := l.File.Write(p)
	observe(l.Name(), p[:n], false)
	return n, err
}

// Replace replaces the file at path with data: written to path +
// TempSuffix, closed, then renamed over path. On any error the temp file
// is removed and the file at path is left as it was.
func Replace(path string, data []byte) error {
	tmp := path + TempSuffix
	err := os.WriteFile(tmp, data, 0o644)
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	observe(path, data, true)
	return nil
}

// Observer, when set, is called with every write this package completes:
// the bytes one Log.Write appended, or the whole contents Replace put in
// place. It is the seam crash-point tests record a run through, and may
// be called from several goroutines at once.
var Observer atomic.Pointer[func(path string, data []byte, replace bool)]

func observe(path string, data []byte, replace bool) {
	if fn := Observer.Load(); fn != nil {
		(*fn)(path, bytes.Clone(data), replace)
	}
}
