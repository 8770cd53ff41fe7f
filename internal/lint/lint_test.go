package lint

import (
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"livegraph/internal/lint/loader"
)

// The module is listed and type-checked once per test process: the repo
// baseline lints its packages, and the fixtures under testdata/src resolve
// their imports (standard library and this module alike) through its
// export data. Fixture import paths keep their directory layout, so the
// path-scoped analyzers (durablefs, syncerr, lockhold) see the same final
// path elements — "wal", "disk" — that scope them in the real tree.
var (
	loadOnce sync.Once
	module   *loader.Result
	loadErr  error
)

func load(t *testing.T) *loader.Result {
	t.Helper()
	loadOnce.Do(func() { module, loadErr = loader.Load("../..", "./...") })
	if loadErr != nil {
		t.Fatalf("loading module: %v", loadErr)
	}
	return module
}

// TestRepoLintClean pins the zero-finding baseline: the whole module,
// under every analyzer, produces no findings. Any new violation of a
// durability, locking or tracing invariant fails it.
func TestRepoLintClean(t *testing.T) {
	for _, f := range lint(load(t).Roots, All) {
		t.Errorf("%s: [%s] %s", f.Position, f.Analyzer, f.Message)
	}
}

// TestDurablefs: reintroducing a raw os.Create/os.Rename/os.WriteFile/
// os.OpenFile/os.Remove into a WAL-like package fails lint.
func TestDurablefs(t *testing.T) { checkFixture(t, "durablefs/wal", Durablefs) }

// TestDurablefsDiskExempt: the disk package is the seam itself and may use
// the raw calls.
func TestDurablefsDiskExempt(t *testing.T) { checkFixture(t, "durablefs/disk", Durablefs) }

func TestCtxprop(t *testing.T)           { checkFixture(t, "ctxprop/lib", Ctxprop) }
func TestCtxpropMainExempt(t *testing.T) { checkFixture(t, "ctxprop/mainpkg", Ctxprop) }

func TestSyncerr(t *testing.T) { checkFixture(t, "syncerr/wal", Syncerr) }

// TestSyncerrScope: the invariant is about the durability layer's commit
// ack, so packages outside wal/disk are out of scope.
func TestSyncerrScope(t *testing.T) { checkFixture(t, "syncerr/other", Syncerr) }

func TestLockhold(t *testing.T) { checkFixture(t, "lockhold/locks", Lockhold) }
func TestSpanend(t *testing.T)  { checkFixture(t, "spanend/spans", Spanend) }

// TestIgnoreDirectives: valid directives suppress on their own line and
// the line below; directives naming a different analyzer suppress nothing.
func TestIgnoreDirectives(t *testing.T) { checkFixture(t, "ignore/code", Durablefs) }

// TestMalformedDirectives: a directive without a reason, or naming an
// unknown analyzer, is itself a finding and suppresses nothing. Asserted
// directly because the "lglint" findings sit on the comment lines
// themselves, where a want comment cannot.
func TestMalformedDirectives(t *testing.T) {
	findings, _ := lintFixture(t, "ignore/malformed", Ctxprop)
	var malformed, unknown, ctxprop int
	for _, f := range findings {
		switch {
		case f.Analyzer == "lglint" && strings.Contains(f.Message, "malformed lglint:ignore"):
			malformed++
		case f.Analyzer == "lglint" && strings.Contains(f.Message, `unknown analyzer "nosuchcheck"`):
			unknown++
		case f.Analyzer == "ctxprop":
			ctxprop++
		default:
			t.Errorf("unexpected finding at %s: [%s] %s", f.Position, f.Analyzer, f.Message)
		}
	}
	if malformed != 1 || unknown != 1 || ctxprop != 2 {
		t.Errorf("got %d malformed / %d unknown-analyzer / %d ctxprop findings, want 1/1/2 (all: %+v)",
			malformed, unknown, ctxprop, findings)
	}
}

// lintFixture type-checks testdata/src/<fixture> as one package and lints
// it, ignore directives applied.
func lintFixture(t *testing.T, fixture string, a *Analyzer) ([]Finding, *loader.Package) {
	t.Helper()
	pkg, err := load(t).CheckDir(filepath.Join("testdata", "src", filepath.FromSlash(fixture)),
		"livegraph/internal/lint/testdata/src/"+fixture)
	if err != nil {
		t.Fatalf("fixture %s: %v", fixture, err)
	}
	return lint([]*loader.Package{pkg}, []*Analyzer{a}), pkg
}

// checkFixture checks that a produces exactly the findings the fixture's
// `// want "regexp"` comments declare: every finding must match a want
// on its line, and every want must be matched by a finding. A trailing
// want comment shares the line of the finding it expects.
func checkFixture(t *testing.T, fixture string, a *Analyzer) {
	t.Helper()
	findings, pkg := lintFixture(t, fixture, a)
	wants := parseWants(t, pkg)
	for _, f := range findings {
		if !claim(wants, f) {
			t.Errorf("unexpected finding at %s: [%s] %s", f.Position, f.Analyzer, f.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no %s finding matched %q", w.file, w.line, a.Name, w.re)
		}
	}
}

// want is one expected-finding declaration.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// wantTokenRE matches the quoted or backquoted patterns of a want comment.
var wantTokenRE = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

// parseWants extracts `// want "re" ["re" ...]` expectations.
func parseWants(t *testing.T, pkg *loader.Package) []*want {
	t.Helper()
	var wants []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				toks := wantTokenRE.FindAllString(text, -1)
				if len(toks) == 0 {
					t.Fatalf("%s:%d: want comment with no quoted pattern", pos.Filename, pos.Line)
				}
				for _, tok := range toks {
					pat, err := strconv.Unquote(tok)
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %s: %v", pos.Filename, pos.Line, tok, err)
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, pat, err)
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return wants
}

// claim marks the first unmatched want covering f, if any.
func claim(wants []*want, f Finding) bool {
	for _, w := range wants {
		if !w.matched && w.file == f.Position.Filename && w.line == f.Position.Line && w.re.MatchString(f.Message) {
			w.matched = true
			return true
		}
	}
	return false
}
