package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// defaultSeconds is BENCHMARK.json's run_seconds: the loop length the
// committed baselines were measured at.
const defaultSeconds = 12

// metadata says what was measured, on what, and how big the module under test
// is: "smaller" is a trajectory this repository tracks too.
type metadata struct {
	Commit          string `json:"commit"`
	GoVersion       string `json:"go_version"`
	NumCPU          int    `json:"nproc"`
	GOMAXPROCS      int    `json:"gomaxprocs"`
	Seed            int64  `json:"seed"`
	Seconds         int    `json:"seconds"`
	Smoke           bool   `json:"smoke,omitempty"`
	NonTestLOC      int    `json:"non_test_loc"`
	ExportedSymbols int    `json:"exported_symbols"`
}

func collectMeta(env *runEnv, seed int64, seconds int, smoke bool) metadata {
	m := metadata{
		Commit:     "unknown", // a checkout without git history still benchmarks
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       seed,
		Seconds:    seconds,
		Smoke:      smoke,
	}
	if out, err := exec.Command("git", "-C", env.root, "rev-parse", "--short", "HEAD").Output(); err == nil {
		m.Commit = strings.TrimSpace(string(out))
	}
	m.NonTestLOC, m.ExportedSymbols = moduleSize(env.root)
	return m
}

// moduleSize counts the non-blank lines and the exported top-level symbols
// (functions, methods, types, and package-level constants and variables) of
// the module's non-test Go files, the benchmark's own excluded. Files it
// cannot read or parse count as nothing.
func moduleSize(root string) (loc, exported int) {
	benchDir := filepath.Join(root, "bench")
	fset := token.NewFileSet()
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path == benchDir || strings.HasPrefix(d.Name(), ".") && path != root {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		for _, line := range strings.Split(string(src), "\n") {
			if strings.TrimSpace(line) != "" {
				loc++
			}
		}
		file, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
		if err != nil {
			return nil
		}
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Name.IsExported() {
					exported++
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							exported++
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								exported++
							}
						}
					}
				}
			}
		}
		return nil
	})
	return loc, exported
}
