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

// treeFiles lists every file of the tree, slash-separated, outside .git and
// the benchmark's scratch directory.
func treeFiles(t *testing.T) (files []string) {
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
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestDocsNameWhatExists fails when README.md, ARCHITECTURE.md, the verify
// skill or a Go comment names a test, benchmark or fuzz target, a Markdown
// file or a Go file that is not in the tree: prose that outlives the code it
// cites. In Markdown only code spans and link targets are read; in Go files
// every comment is. bench/ is its own module with its own documents; its
// files count as existing but are not read.
func TestDocsNameWhatExists(t *testing.T) {
	files := treeFiles(t)
	funcs := map[string]bool{} // Test/Benchmark/Fuzz functions declared anywhere
	type span struct{ where, text string }
	var comments []span

	fset := token.NewFileSet()
	for _, path := range files {
		if !strings.HasSuffix(path, ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
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

// testOnlyExports are the exported functions and methods under internal/ that
// no non-test code calls, each with the reason it is exported all the same.
// Functions are keyed package.Name, methods package.Receiver.Name.
var testOnlyExports = map[string]string{
	"core.EM.AbsenceMasses":          "the incrementally maintained absence masses, read by TestAbsenceMassAnchorBitExact and the engine fuzz oracle",
	"core.EM.RecomputeAbsenceMasses": "the canonical recompute those masses are pinned against",
	"core.EM.BuildResult":            "the deep-copy reference build BuildResultFrom is pinned against (TestGenerationPublishMatchesFullBuild, BenchmarkPublish)",
	"core.EM.SourceVoteWeights":      "the installed copy discounts, read by the copy/fusion oracle suite",
	"core.Result.QAt":                "completes AAt/PAt/RAt; the oracle suites compare Q too",
	"core.Result.NumTriples":         "generation-vs-batch comparisons iterate the published triples by index",
	"core.Result.CoveredTripleAt":    "compared generation against batch by the publish and oracle suites",
	"core.Result.RestMassAt":         "compared generation against batch; the paper's worked examples read it",
	"triple.Snapshot.ExtractorID":    "completes SourceID/ItemID/ValueID; the worked-example tests address extractors by name",
	"kb.KB.EntityType":               "the knowledge base's query surface, exercised by its own package tests",
	"kb.KB.HasFact":                  "as KB.EntityType",
	"kb.KB.NumFacts":                 "as KB.EntityType",
	"kb.KB.Objects":                  "as KB.EntityType",
	"pagerank.Result.TopK":           "ranks the PageRank scores in the package's own tests",
	"synthetic.GroupLocalCorpus":     "the group-local corpus of the staleness tests and the ungated Layer-6 benches",
	"wal.Checkpoint.AllRecords":      "flattens a recovered chain for the durable and checkpoint round-trip tests",
	"wal.Log.Segments":               "segment count, read by the roll and truncate tests",
	"wal.NewFaultFS":                 "the one injection filesystem: tests construct it, production takes the FS interface",
	"wal.FaultFS.Calls":              "how many operations a fault schedule saw, for the sweeps that walk every step",
	"wal.FaultFS.Injected":           "how many faults fired, so a sweep can tell a clean pass from one that never injected",
}

// TestNoUncalledExports fails when an exported function or method declared
// in a non-test file under internal/ is named by no non-test Go code of the
// module or of bench/ beyond its own declaration, unless testOnlyExports
// says why; an entry there that is stale fails too. The check is by name,
// not by type: it catches an export that lost its last caller, not one that
// shares its name with a live one.
func TestNoUncalledExports(t *testing.T) {
	type export struct{ key, name, where string }
	var exports []export
	named := map[string]int{} // identifier → its occurrences in non-test code, declarations included

	fset := token.NewFileSet()
	for _, path := range treeFiles(t) {
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				named[id.Name]++
			}
			return true
		})
		if !strings.HasPrefix(path, "internal/") {
			continue
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			owner := f.Name.Name
			if fn.Recv != nil {
				recv := fn.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if generic, ok := recv.(*ast.IndexExpr); ok {
					recv = generic.X
				}
				owner += "." + recv.(*ast.Ident).Name
			}
			exports = append(exports, export{owner + "." + fn.Name.Name, fn.Name.Name, fset.Position(fn.Pos()).String()})
		}
	}

	declared := map[string]bool{}
	for _, x := range exports {
		called := named[x.name] > 1 // beyond the declaration itself
		switch _, listed := testOnlyExports[x.key]; {
		case called && listed:
			t.Errorf("%s: %s is called by non-test code; drop it from testOnlyExports", x.where, x.key)
		case !called && !listed:
			t.Errorf("%s: %s is named by no non-test code: delete it, or give testOnlyExports its reason", x.where, x.key)
		}
		declared[x.key] = true
	}
	for key := range testOnlyExports {
		if !declared[key] {
			t.Errorf("testOnlyExports lists %s, which internal/ does not declare", key)
		}
	}
}
