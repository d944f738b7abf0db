package resultio

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// roundTrip writes an accepted document, reads it back and writes it
// again: the reader must accept its own writer's output, and the two
// encodings must be byte-identical.
func roundTrip[T any](t *testing.T, v *T, write func(io.Writer, *T) error, read func(io.Reader) (*T, error)) {
	t.Helper()
	var first, second bytes.Buffer
	if err := write(&first, v); err != nil {
		t.Fatal(err)
	}
	again, err := read(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatalf("accepted document fails its own round trip: %v", err)
	}
	if err := write(&second, again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("round trip changed the document:\n%s\n%s", first.Bytes(), second.Bytes())
	}
}

// FuzzReadCellEntry hardens the sweep-cell cache-entry reader (simd
// loads these from its cache directory): it must never panic, every
// entry it accepts carries a key and a supported version, and accepted
// entries survive a write/read round trip unchanged.
func FuzzReadCellEntry(f *testing.F) {
	f.Fuzz(func(t *testing.T, doc string) {
		e, err := ReadCellEntry(strings.NewReader(doc))
		if err != nil {
			return
		}
		if e.Version != CellFormatVersion || e.Key == "" || e.Record.Version != FormatVersion {
			t.Fatalf("accepted entry with version %d, key %q, record version %d", e.Version, e.Key, e.Record.Version)
		}
		roundTrip(t, e, WriteCellEntry, ReadCellEntry)
	})
}

// readSeed decodes one committed "go test fuzz v1" corpus file holding
// a single string argument.
func readSeed(t *testing.T, path string) string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	header, body, ok := strings.Cut(string(raw), "\n")
	body = strings.TrimSpace(body)
	if !ok || header != "go test fuzz v1" || !strings.HasPrefix(body, "string(") || !strings.HasSuffix(body, ")") {
		t.Fatalf("%s: not a single-string fuzz corpus file", path)
	}
	doc, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(body, "string("), ")"))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return doc
}

// The FuzzReadCellEntry seeds are edits of one valid entry, each
// meant to reach a single defect. The fuzz target cannot tell a seed
// that reaches its defect from one the strict decoder rejects earlier
// (say, because the config schema moved on), since rejection is a
// legal outcome. So the valid seed must be accepted and must be
// exactly what the writer emits today, and every defect seed must fail
// on its own defect.
func TestCellEntrySeedsMatchSchema(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzReadCellEntry")
	valid := readSeed(t, filepath.Join(dir, "valid"))
	e, err := ReadCellEntry(strings.NewReader(valid))
	if err != nil {
		t.Fatalf("valid seed rejected: %v", err)
	}
	var buf bytes.Buffer
	if err := WriteCellEntry(&buf, e); err != nil {
		t.Fatal(err)
	}
	if buf.String() != valid {
		t.Fatalf("valid seed differs from the writer's output:\n%s", buf.String())
	}
	for seed, wantErr := range map[string]string{
		"bad-version":   "unsupported cell entry version",
		"missing-key":   "missing key",
		"no-workload":   "missing workload",
		"trailing-data": "trailing data",
	} {
		_, err := ReadCellEntry(strings.NewReader(readSeed(t, filepath.Join(dir, seed))))
		if err == nil || !strings.Contains(err.Error(), wantErr) {
			t.Errorf("seed %s: error %v, want one containing %q", seed, err, wantErr)
		}
	}
}
