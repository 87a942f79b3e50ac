package vet

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ruleanalysis"
)

var update = flag.Bool("update", false, "rewrite golden files")

// runCorpus runs the full suite over a fixture tree once per test binary.
func runCorpus(t *testing.T, root string) []ruleanalysis.Finding {
	t.Helper()
	fs, err := Run(filepath.Join("testdata", "src", root), All())
	if err != nil {
		t.Fatalf("Run(%s): %v", root, err)
	}
	return fs
}

func TestCorpusGolden(t *testing.T) {
	fs := runCorpus(t, "corpus")
	var buf bytes.Buffer
	if err := WriteText(&buf, fs); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "corpus.golden")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("corpus output differs from golden:\n--- got ---\n%s--- want ---\n%s", buf.Bytes(), want)
	}
}

// TestCorpusSeededCases pins the acceptance-critical findings
// independently of the golden bytes: the fsync-under-lock fixture must be
// flagged by lockheld, and each analyzer must fire on its seeded package.
func TestCorpusSeededCases(t *testing.T) {
	fs := runCorpus(t, "corpus")
	type probe struct {
		check, file, substr string
	}
	for _, want := range []probe{
		{"lockheld", "walstub/walstub.go", "durability call w.f.Sync"},
		{"lockheld", "walstub/walstub.go", "Locked-suffix convention"},
		{"lockheld", "walstub/walstub.go", "file IO call w.f.Write"},
		{"lockheld", "app/app.go", "channel send"},
		{"lockheld", "app/app.go", "channel receive"},
		{"atomicmix", "atomics/atomics.go", "plain access races"},
		{"errdrop", "drops/drops.go", "error from f.Close is discarded"},
		{"errdrop", "drops/drops.go", "defer discards the error from f.Sync"},
		{"noprint", "prints/prints.go", "fmt.Println"},
		{"noprint", "prints/prints.go", "log.Printf"},
		{"noprint", "prints/prints.go", "log/slog.Info"},
		{"noprint", "prints/dot.go", "dot-import"},
		{"testleak", "leaks/leaks_test.go", "no visible join"},
		{"testleak", "leaks/leaks_test.go", "time.Sleep"},
		{"vet-ignore", "sup/sup.go", "missing \"-- <reason>\""},
		{"errdrop", "sup/sup.go", "f.Close"},
	} {
		if !hasFinding(fs, want.check, want.file, want.substr) {
			t.Errorf("missing %s finding in %s matching %q", want.check, want.file, want.substr)
		}
	}
	// The clean shapes must stay clean, and the suppressed ones silent.
	for _, stray := range []probe{
		{"lockheld", "walstub/walstub.go", "SyncOutside"},
		{"errdrop", "drops/drops.go", "defer discards the error from f.Close"},
		{"noprint", "cmd/tool/main.go", ""},
		{"testleak", "leaks/leaks_test.go", "TestJoined"},
		{"testleak", "leaks/leaks_test.go", "TestPolls"},
		{"errdrop", "sup/sup.go", "f.Sync"},
	} {
		if hasFinding(fs, stray.check, stray.file, stray.substr) {
			t.Errorf("unexpected %s finding in %s matching %q", stray.check, stray.file, stray.substr)
		}
	}
	// Exactly one errdrop finding survives in sup: the one under the
	// malformed directive.
	if n := countFindings(fs, "errdrop", "sup/sup.go"); n != 1 {
		t.Errorf("suppressions: %d errdrop findings in sup/sup.go, want 1", n)
	}
}

func hasFinding(fs []ruleanalysis.Finding, check, file, substr string) bool {
	for _, f := range fs {
		if f.Check == check && f.Pos.File == file && strings.Contains(f.Message, substr) {
			return true
		}
	}
	return false
}

func countFindings(fs []ruleanalysis.Finding, check, file string) int {
	n := 0
	for _, f := range fs {
		if f.Check == check && f.Pos.File == file {
			n++
		}
	}
	return n
}

func TestBrokenTreeSurfacesTypecheck(t *testing.T) {
	fs := runCorpus(t, "broken")
	if !hasFinding(fs, "typecheck", "broken.go", "") {
		t.Fatalf("no typecheck finding for the broken tree: %+v", fs)
	}
}

func TestParseIgnore(t *testing.T) {
	cases := []struct {
		in      string
		all     bool
		checks  []string
		wantErr string
	}{
		{in: ` errdrop -- reason`, checks: []string{"errdrop"}},
		{in: ` errdrop,lockheld -- reason`, checks: []string{"errdrop", "lockheld"}},
		{in: ` all -- reason`, all: true},
		{in: ` errdrop`, wantErr: `missing "-- <reason>"`},
		{in: ` errdrop -- `, wantErr: "empty reason"},
		{in: ` -- reason`, wantErr: "no checks named"},
	}
	for _, c := range cases {
		entry, errMsg := parseIgnore(c.in)
		if c.wantErr != "" {
			if !strings.Contains(errMsg, c.wantErr) {
				t.Errorf("parseIgnore(%q) error = %q, want %q", c.in, errMsg, c.wantErr)
			}
			continue
		}
		if errMsg != "" {
			t.Errorf("parseIgnore(%q): %s", c.in, errMsg)
			continue
		}
		if entry.all != c.all {
			t.Errorf("parseIgnore(%q).all = %v", c.in, entry.all)
		}
		for _, name := range c.checks {
			if !entry.checks[name] {
				t.Errorf("parseIgnore(%q) misses check %s", c.in, name)
			}
		}
	}
}

func TestSelect(t *testing.T) {
	all := All()
	got, err := Select(all, "")
	if err != nil || len(got) != len(all) {
		t.Fatalf("empty selection: %v, %d analyzers", err, len(got))
	}
	got, err = Select(all, "lockheld, errdrop")
	if err != nil || len(got) != 2 || got[0].Name != "lockheld" || got[1].Name != "errdrop" {
		t.Fatalf("selection = %v, %v", got, err)
	}
	if _, err := Select(all, "nosuch"); err == nil {
		t.Fatal("unknown check accepted")
	}
}

func TestWriteJSONAndCounts(t *testing.T) {
	fs := runCorpus(t, "corpus")
	var buf bytes.Buffer
	if err := ruleanalysis.WriteJSON(&buf, fs); err != nil {
		t.Fatal(err)
	}
	var back []ruleanalysis.Finding
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("JSON round trip: %v", err)
	}
	if len(back) != len(fs) {
		t.Fatalf("JSON round trip: %d findings, want %d", len(back), len(fs))
	}
	buf.Reset()
	if err := WriteCounts(&buf, All(), fs); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, check := range []string{"lockheld", "atomicmix", "errdrop", "testleak", "noprint", "vet-ignore"} {
		if !strings.Contains(out, `{check="`+check+`"}`) {
			t.Errorf("counts missing %s:\n%s", check, out)
		}
	}
	// A clean run still exposes every selected series, at zero.
	buf.Reset()
	if err := WriteCounts(&buf, All(), nil); err != nil {
		t.Fatal(err)
	}
	for _, a := range All() {
		if !strings.Contains(buf.String(), `{check="`+a.Name+`"} 0`) {
			t.Errorf("clean counts missing %s:\n%s", a.Name, buf.String())
		}
	}
	if sev, ok := MaxSeverity(fs); !ok || sev != ruleanalysis.SeverityError {
		t.Errorf("MaxSeverity = %v, %v", sev, ok)
	}
	if _, ok := MaxSeverity(nil); ok {
		t.Error("MaxSeverity(nil) reported a severity")
	}
}

func TestSelectSeverityUnmarshal(t *testing.T) {
	// Severity round-trips through its JSON name; the CLI relies on it for
	// -fail-on parsing via ParseSeverity.
	if s, ok := ruleanalysis.ParseSeverity("warning"); !ok || s != ruleanalysis.SeverityWarning {
		t.Fatalf("ParseSeverity(warning) = %v, %v", s, ok)
	}
}
