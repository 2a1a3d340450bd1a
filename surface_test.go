package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	pathpkg "path"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// surfaceKeep lists the exported declarations under internal/ that no
// non-test code references but that stay, keyed "pkg.Name" or
// "pkg.Type.Method" (pkg relative to internal/). Each reason names the
// test or ROADMAP item that uses the declaration.
var surfaceKeep = map[string]string{
	// Reference oracles: tests compare production code against them.
	"la.Expm":                                  "reference the in-place kernel is pinned to (TestExpmWorkspaceBitIdenticalToSeed)",
	"la.DiscretizeZOH":                         "reference for the in-place ZOH kernel and sim's seed replica (TestZOHWorkspaceBitIdenticalToSeed, sim equivalence tests)",
	"harvester.Params.SteadyStatePower":        "analytic power that checks the tuning law (TestTuningNeverHurtsAtResonance)",
	"harvester.Params.SteadyStateDisplacement": "analytic amplitude in TestTransientMatchesAnalyticAmplitude",
	"harvester.Params.OptimalLoad":             "matched load in TestSteadyStatePowerMicrowattScale",
	"harvester.Params.AlgebraicCurrent":        "coil current in TestElectricalDampingAndEMF and TestTransientMatchesAnalyticAmplitude",
	"ode.RK4Step":                              "reference stepper in TestTransientMatchesAnalyticAmplitude and TestRK4Accuracy",
	"ode.FixedStep":                            "reference integrator for the implicit method and the harvester model (TestImplicitStableOnStiffSystem, TestTransientMatchesAnalyticAmplitude)",
	"ode.EulerStep":                            "first-order stepper FixedStep is checked with (TestEulerConvergesFirstOrder)",
	"stats.NormalQuantile":                     "oracle for sample quantiles (TestQuantileAgainstSamples)",
	"stats.Quantile":                           "the sample quantile TestQuantileAgainstSamples pins against NormalQuantile",
	"node.Config.CyclePowerBudget":             "energy-balance oracle for the node model (TestRailEnergyAccounting)",

	// Verification helpers used by tests of other code.
	"la.Matrix.AddM":                      "reference for AddInto (TestElementwiseIntoMatchAndAlias)",
	"la.Matrix.SubM":                      "residual checks (TestQRXtXInverse, TestEigenSymReconstructionProperty)",
	"la.Matrix.Scale":                     "reference for ScaleInto (TestElementwiseIntoMatchAndAlias, TestExpmGroupProperty)",
	"la.Matrix.Col":                       "eigenvector checks (TestEigenSymKnown)",
	"la.Matrix.Cols":                      "shape checks (TestNewMatrixZero, TestTranspose)",
	"la.Matrix.MulVec":                    "residual checks (TestLUSolveResidualProperty)",
	"la.Inverse":                          "reference inverse in TestQRXtXInverse",
	"la.LU.Det":                           "determinant check in TestLURefactorMatchesFactorLU",
	"circuit.Circuit.AddInductor":         "element builder for the transient solver tests (TestRLCurrentRise)",
	"circuit.Circuit.NumNodes":            "node count check in TestNodeCreation",
	"circuit.DC":                          "source waveform for the transient solver tests (TestResistorDivider)",
	"circuit.SiliconSmallSignal":          "diode model for the transient solver tests (TestDiodeHalfWaveRectifier)",
	"core.AllResponses":                   "every indicator for TestExtractAllResponses",
	"explore.AtMost":                      "constraint builder in TestConstraintsAndFilter",
	"node.New":                            "constructor for the node tests (TestRailEnergyAccounting); production uses NewWithLink",
	"node.Node.Buffered":                  "buffer observer in TestThresholdPolicyBuffersThenBursts and TestNodeWithLossyLinkEndToEnd",
	"obs.Registry.Gauge":                  "plain gauge for TestGaugeAndFuncs and TestConcurrentInstruments",
	"opt.CompositeDesirability.Breakdown": "per-response check in TestCompositeGeometricMean",
	"stats.RMS":                           "signal scale in TestReferenceMatchesFastOnStoreVoltage",
	"serve.Server.Jobs":                   "job manager access in TestBuildQueueRaceExactCapacity and TestHealthzReportsQueueDepth",
	"vibration.MultiTone":                 "source that cannot key a map, in sim's TestDrivesFallbacksNeverStore",
	"tuner.Controller.Decisions":          "decision count in TestControllerIdleInsideDeadband",

	// Interface methods called implicitly.
	"obs.nopHandler.WithAttrs":    "slog.Handler method, called through the interface",
	"obs.nopHandler.WithGroup":    "slog.Handler method, called through the interface",
	"core.RunTimeoutError.Unwrap": "errors.Is sees context.DeadlineExceeded through it (TestRunTimeoutAbandonsHungRun)",
	"sim.LaneError.Unwrap":        "errors.As reaches a lane's cause through it, as core's transient-retry check does",
	"node.Counters.MarshalJSON":   "encoding/json calls it; TestCountersJSONRoundTrip pins the NaN sentinel",
	"node.Counters.UnmarshalJSON": "encoding/json calls it; TestCountersJSONRoundTrip pins the NaN sentinel",

	// Enum members.
	"doe.CCC": "first iota member; CCF and CCI take their values from its position",

	// Named next callers.
	"rsm.Fit.PredictCI": "prediction interval the ROADMAP fidelity-chain item puts on /v1/predict",
	"rsm.Fit.Canonical": "stationary-point analysis; the ROADMAP item 'Canonical analysis: serve it or retire it' decides",

	// Held back with their own tests; the ROADMAP item 'Finish the
	// dead-surface prune' deletes them.
	"circuit.Circuit.OperatingPoint": "DC operating point (TestOperatingPoint*); ROADMAP 'Finish the dead-surface prune'",
	"ode.Adaptive":                   "Cash–Karp RK45 (TestAdaptive*); ROADMAP 'Finish the dead-surface prune'",
	"opt.Target":                     "target-is-best desirability (TestTargetDesirability); ROADMAP 'Finish the dead-surface prune'",
	"vibration.DriftingSine":         "linear-chirp source (TestDriftingSine, TestSourcesArePure); ROADMAP 'Finish the dead-surface prune'",
}

// TestNoDeadSurface fails on every exported top-level declaration under
// internal/ that no non-test Go file in cmd/, internal/, examples/ or
// e2ebench/ references, unless surfaceKeep lists it; and on every
// surfaceKeep entry that no longer exists or has gained a reference, so
// the list cannot rot.
//
// It matches by name, not by type. A function, type, variable or
// constant counts as referenced when a bare identifier of its name
// appears in a non-test file of the declaring package, or a selector of
// its name on that package's import appears in any non-test file. A
// method counts as referenced when a selector of its name appears in any
// non-test file, whatever it selects from. A declaration's mentions of
// itself do not count, nor do a method's mentions of its receiver type.
// That leaves one blind spot: a dead type's methods that share a live
// method's name go unreported (with its constructor gone, la.Cholesky's
// Solve looked used through LU.Solve). The type itself is still
// reported.
func TestNoDeadSurface(t *testing.T) {
	type declaration struct {
		dir, key, name string
		method         bool
	}
	var decls []declaration
	local := map[string]map[string]bool{} // dir → bare identifiers used there
	qualified := map[string]bool{}        // "internal/pkg.Name" used through an import
	selected := map[string]bool{}         // other selector names used anywhere
	fset := token.NewFileSet()
	for _, top := range []string{"cmd", "internal", "examples", "e2ebench"} {
		err := filepath.WalkDir(top, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			dir := filepath.Dir(path)
			if local[dir] == nil {
				local[dir] = map[string]bool{}
			}
			pkg, inInternal := strings.CutPrefix(filepath.ToSlash(dir), "internal/")
			imports := map[string]string{} // local name → "internal/pkg"
			for _, spec := range f.Imports {
				if rel, ok := strings.CutPrefix(strings.Trim(spec.Path.Value, `"`), "repro/"); ok {
					name := pathpkg.Base(rel)
					if spec.Name != nil {
						name = spec.Name.Name
					}
					imports[name] = rel
				}
			}
			declare := func(name, recv string) {
				if inInternal && ast.IsExported(name) {
					key := pkg + "." + name
					if recv != "" {
						key = pkg + "." + recv + "." + name
					}
					decls = append(decls, declaration{dir, key, name, recv != ""})
				}
			}
			// uses records the names n mentions, leaving out self: the
			// names of the declaration n belongs to.
			uses := func(n ast.Node, self ...string) {
				var visit func(ast.Node) bool
				visit = func(m ast.Node) bool {
					switch x := m.(type) {
					case *ast.SelectorExpr:
						if id, ok := x.X.(*ast.Ident); ok && imports[id.Name] != "" {
							qualified[imports[id.Name]+"."+x.Sel.Name] = true
						} else {
							selected[x.Sel.Name] = true
							ast.Inspect(x.X, visit)
						}
						return false
					case *ast.Ident:
						if !slices.Contains(self, x.Name) {
							local[dir][x.Name] = true
						}
					}
					return true
				}
				ast.Inspect(n, visit)
			}
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					recv, self := "", []string{d.Name.Name}
					if d.Recv != nil {
						recv = receiverType(d.Recv.List[0].Type)
						self = []string{recv}
					}
					declare(d.Name.Name, recv)
					uses(d.Type, self...)
					if d.Body != nil {
						uses(d.Body, self...)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							declare(s.Name.Name, "")
							if s.TypeParams != nil {
								uses(s.TypeParams, s.Name.Name)
							}
							uses(s.Type, s.Name.Name)
						case *ast.ValueSpec:
							var names []string
							for _, id := range s.Names {
								declare(id.Name, "")
								names = append(names, id.Name)
							}
							if s.Type != nil {
								uses(s.Type, names...)
							}
							for _, v := range s.Values {
								uses(v, names...)
							}
						}
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	var dead, stale []string
	seen := map[string]bool{}
	for _, d := range decls {
		seen[d.key] = true
		used := selected[d.name]
		if !d.method {
			used = local[d.dir][d.name] || qualified[filepath.ToSlash(d.dir)+"."+d.name]
		}
		_, kept := surfaceKeep[d.key]
		switch {
		case !used && !kept:
			dead = append(dead, d.key)
		case used && kept:
			stale = append(stale, d.key+" (now referenced)")
		}
	}
	for key := range surfaceKeep {
		if !seen[key] {
			stale = append(stale, key+" (no longer declared)")
		}
	}
	sort.Strings(dead)
	sort.Strings(stale)
	for _, key := range dead {
		t.Errorf("%s: exported under internal/ but no non-test code references it; delete it or add it to surfaceKeep with the user that keeps it", key)
	}
	for _, entry := range stale {
		t.Errorf("surfaceKeep entry %s: remove it from the list", entry)
	}
}

// receiverType returns the type name of a method receiver such as T,
// *T or *T[P].
func receiverType(expr ast.Expr) string {
	for {
		switch e := expr.(type) {
		case *ast.StarExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.IndexListExpr:
			expr = e.X
		case *ast.ParenExpr:
			expr = e.X
		case *ast.Ident:
			return e.Name
		}
	}
}
