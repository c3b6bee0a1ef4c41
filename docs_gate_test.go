package locsched_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// TestGodocGate enforces the documentation contract on the hot-path
// files the architecture docs lean on: every exported identifier —
// types, functions, methods, and exported struct fields — carries a doc
// comment. The list is deliberately explicit rather than repo-wide so
// the gate stays cheap and additions are a reviewed decision.
var godocGatedFiles = []string{
	"internal/cache/runs.go",
	"internal/mpsoc/machine.go",
	"internal/mpsoc/parallel_engine.go",
	"internal/experiment/topo.go",
	"internal/trace/rle.go",
	"internal/experiment/fingerprint.go",
	"internal/experiment/family.go",
	"internal/experiment/serve.go",
	"internal/sched/affinity.go",
	"internal/sched/locality.go",
	"internal/sharing/parallel.go",
	"internal/taskgraph/content.go",
	"internal/obs/metrics.go",
	"internal/obs/fields.go",
	"internal/obs/histogram.go",
	"internal/obs/expfmt.go",
	"internal/obs/trace.go",
	"internal/obs/log.go",
	"internal/server/server.go",
	"internal/server/planner.go",
	"internal/server/metrics.go",
	"internal/server/cache.go",
	"internal/server/coalesce.go",
	"internal/server/config.go",
	"internal/server/stats.go",
	"internal/loadgen/loadgen.go",
	"internal/loadgen/fleet.go",
	"internal/server/cli.go",
	"internal/store/store.go",
	"internal/store/fs.go",
	"internal/store/faultfs.go",
	"internal/store/breaker.go",
	"internal/store/manifest.go",
	"internal/fleet/fleet.go",
	"internal/fleet/client.go",
}

func TestGodocGate(t *testing.T) {
	for _, path := range godocGatedFiles {
		t.Run(path, func(t *testing.T) {
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
			if err != nil {
				t.Fatalf("parsing %s: %v", path, err)
			}
			report := func(pos token.Pos, kind, name string) {
				t.Errorf("%s: exported %s %s has no doc comment", fset.Position(pos), kind, name)
			}
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Name.IsExported() && d.Doc == nil {
						report(d.Pos(), "function/method", d.Name.Name)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							if s.Name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
								report(s.Pos(), "type", s.Name.Name)
							}
							if st, ok := s.Type.(*ast.StructType); ok && s.Name.IsExported() {
								for _, fld := range st.Fields.List {
									for _, n := range fld.Names {
										if n.IsExported() && fld.Doc == nil && fld.Comment == nil {
											report(n.Pos(), "field", s.Name.Name+"."+n.Name)
										}
									}
								}
							}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								if n.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
									report(n.Pos(), "value", n.Name)
								}
							}
						}
					}
				}
			}
		})
	}
}
