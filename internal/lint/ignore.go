package lint

import (
	"fmt"
	"slices"
	"strings"

	"livegraph/internal/lint/loader"
)

// The escape hatch: a comment of the form
//
//	//lglint:ignore <analyzer>[,<analyzer>...] <reason>
//
// on the same line as a finding, or on the line directly above it,
// suppresses that analyzer's findings there. The reason is mandatory —
// an ignore that cannot say why it exists is exactly the silent invariant
// drift the analyzers are meant to stop — and malformed directives are
// reported as findings of the pseudo-analyzer "lglint".
const ignorePrefix = "//lglint:ignore"

// ignoreSet maps file -> line -> analyzer names suppressed there.
type ignoreSet map[string]map[int][]string

// ignores scans the packages' comments for ignore directives. It returns
// the directive index plus one finding per malformed directive.
func ignores(pkgs []*loader.Package) (ignoreSet, []Finding) {
	set := ignoreSet{}
	var malformed []Finding
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text, ok := strings.CutPrefix(c.Text, ignorePrefix)
					if !ok {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					bad := func(format string, args ...any) {
						malformed = append(malformed, Finding{Analyzer: "lglint", Position: pos, Message: fmt.Sprintf(format, args...)})
					}
					fields := strings.Fields(text)
					if len(fields) < 2 {
						bad("malformed lglint:ignore directive: want //lglint:ignore <analyzer> <reason>")
						continue
					}
					names := strings.Split(fields[0], ",")
					if name := unknownAnalyzer(names); name != "" {
						bad("lglint:ignore names unknown analyzer %q", name)
						continue
					}
					lines := set[pos.Filename]
					if lines == nil {
						lines = make(map[int][]string)
						set[pos.Filename] = lines
					}
					lines[pos.Line] = append(lines[pos.Line], names...)
				}
			}
		}
	}
	return set, malformed
}

func unknownAnalyzer(names []string) string {
	for _, n := range names {
		if n != "all" && !slices.ContainsFunc(All, func(a *Analyzer) bool { return a.Name == n }) {
			return n
		}
	}
	return ""
}

// suppresses reports whether f is covered by a directive on its line or
// the line above.
func (s ignoreSet) suppresses(f Finding) bool {
	lines := s[f.Position.Filename]
	for _, line := range []int{f.Position.Line, f.Position.Line - 1} {
		for _, name := range lines[line] {
			if name == f.Analyzer || name == "all" {
				return true
			}
		}
	}
	return false
}
