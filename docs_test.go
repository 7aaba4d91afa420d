package kbt

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The documents this test keeps honest, besides the Go comments.
var checkedDocs = []string{"README.md", "ARCHITECTURE.md", ".claude/skills/verify/SKILL.md"}

var (
	testNameRE = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9]\w*`)
	fileRefRE  = regexp.MustCompile(`[\w.\-/]*\w\.(?:md|go)\b`)
	codeSpanRE = regexp.MustCompile("`[^`\n]+`")
	linkTargRE = regexp.MustCompile(`\]\(([^)#\s]+)\)`)
	fencedRE   = regexp.MustCompile("(?s)```.*?```")
)

// TestDocsNameWhatExists fails when README.md, ARCHITECTURE.md, the verify
// skill or a Go comment names a test, benchmark or fuzz target, a Markdown
// file or a Go file that is not in the tree: prose that outlives the code it
// cites. In Markdown only code spans and link targets are read; in Go files
// every comment is. bench/ is its own module with its own documents; its
// files count as existing but are not read.
func TestDocsNameWhatExists(t *testing.T) {
	var files []string         // every file of the tree, slash-separated
	funcs := map[string]bool{} // Test/Benchmark/Fuzz functions declared anywhere
	type span struct{ where, text string }
	var comments []span

	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		path = filepath.ToSlash(path)
		if d.IsDir() {
			if path == ".git" || path == "bench/out" {
				return filepath.SkipDir
			}
			return nil
		}
		files = append(files, path)
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if strings.HasSuffix(path, "_test.go") {
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
					funcs[fn.Name.Name] = true
				}
			}
		}
		if !strings.HasPrefix(path, "bench/") {
			for _, cg := range f.Comments {
				comments = append(comments, span{fset.Position(cg.Pos()).String(), cg.Text()})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	exists := func(ref string) bool {
		ref = strings.TrimPrefix(ref, "./")
		for _, f := range files {
			if f == ref || strings.HasSuffix(f, "/"+ref) {
				return true
			}
		}
		return false
	}
	check := func(where, text string) {
		for _, name := range testNameRE.FindAllString(text, -1) {
			if !funcs[name] {
				t.Errorf("%s: names %s, which no _test.go file declares", where, name)
			}
		}
		for _, loc := range fileRefRE.FindAllStringIndex(text, -1) {
			ref := text[loc[0]:loc[1]]
			// `*_test.go`, `BENCH_<pr>.md`, `wal-%016x.go`: patterns, not files.
			if loc[0] > 0 && strings.IndexByte("*<>%", text[loc[0]-1]) >= 0 {
				continue
			}
			if !exists(ref) {
				t.Errorf("%s: names %s, which is not in the tree", where, ref)
			}
		}
	}

	for _, c := range comments {
		check(c.where, c.text)
	}
	for _, doc := range checkedDocs {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := fencedRE.ReplaceAllString(string(raw), "")
		for _, m := range codeSpanRE.FindAllString(text, -1) {
			check(doc, m)
		}
		for _, m := range linkTargRE.FindAllStringSubmatch(text, -1) {
			if !strings.Contains(m[1], "://") && !exists(m[1]) {
				t.Errorf("%s: links to %s, which is not in the tree", doc, m[1])
			}
		}
	}
}
