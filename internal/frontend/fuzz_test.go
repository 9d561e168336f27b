package frontend

import (
	"strings"
	"testing"
)

// FuzzCompile feeds arbitrary source to Compile, seeded with the embedded
// corpus: it must never panic, and every error it returns is one line, the
// shape the CLIs print.
func FuzzCompile(f *testing.F) {
	for _, name := range CorpusNames() {
		src, err := corpusFS.ReadFile("testdata/corpus/" + name + ".go")
		if err != nil {
			f.Fatal(err)
		}
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		_, err := Compile("fuzz", src)
		if err != nil && strings.Contains(err.Error(), "\n") {
			t.Fatalf("multi-line error: %q", err)
		}
	})
}
