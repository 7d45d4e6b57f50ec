package scenario

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/corpus_digests.txt")

const digestFile = "testdata/corpus_digests.txt"

// corpusDigests runs every shipped scenario on the serial engine and
// returns one line per scenario: its file name, the SHA-256 of its
// report and the SHA-256 of its telemetry stream sampled at
// parityInterval.
func corpusDigests(t *testing.T) []string {
	t.Helper()
	paths, err := filepath.Glob("../../examples/scenarios/*.yaml")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 6 {
		t.Fatalf("found %d corpus scenarios, want at least 6", len(paths))
	}
	lines := make([]string, len(paths))
	for i, path := range paths {
		report, stream := runCorpusWith(t, path, "serial", 0, 0)
		r, s := sha256.Sum256([]byte(report)), sha256.Sum256([]byte(stream))
		lines[i] = fmt.Sprintf("%s %s %s", filepath.Base(path), hex.EncodeToString(r[:]), hex.EncodeToString(s[:]))
	}
	return lines
}

// TestCorpusGoldenDigests pins every corpus scenario's serial report and
// telemetry stream to digests frozen in testdata. TestCorpusEngineParity
// compares two engines against each other; this test compares both
// against recorded output, so it still holds when one engine goes.
// Regenerate deliberately with: go test ./internal/scenario -run
// GoldenDigests -update
func TestCorpusGoldenDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("digests run the whole corpus")
	}
	got := corpusDigests(t)
	if *updateDigests {
		if err := os.MkdirAll(filepath.Dir(digestFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d scenarios)", digestFile, len(got))
		return
	}
	f, err := os.Open(digestFile)
	if err != nil {
		t.Fatalf("read digests (run with -update to create): %v", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := sc.Text(); line != "" {
			name, _, _ := strings.Cut(line, " ")
			want[name] = line
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("%s holds %d scenarios, corpus has %d", digestFile, len(want), len(got))
	}
	for _, line := range got {
		name, _, _ := strings.Cut(line, " ")
		if w, ok := want[name]; !ok {
			t.Errorf("%s: no frozen digest", name)
		} else if w != line {
			t.Errorf("%s: output diverged from frozen digest\n got  %s\n want %s", name, line, w)
		}
	}
}
