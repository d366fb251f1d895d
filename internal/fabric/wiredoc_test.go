package fabric

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestWireDocMatchesFrames is the frame-catalog drift check: the frame
// constants of frames.go and the fabric table of docs/WIRE.md must name
// the same frames with the same type bytes, in both directions, and the
// section heading's range must cover every constant.
func TestWireDocMatchesFrames(t *testing.T) {
	consts := frameConsts(t)
	heading, rows := wireDocFrames(t)

	for name, v := range consts {
		got, ok := rows[name]
		switch {
		case !ok:
			t.Errorf("frames.go: %s = %#x has no row in docs/WIRE.md", name, v)
		case got != v:
			t.Errorf("docs/WIRE.md: %s is %#x, frames.go says %#x", name, got, v)
		}
	}
	for name, v := range rows {
		if _, ok := consts[name]; !ok {
			t.Errorf("docs/WIRE.md: row %#x %s has no constant in frames.go", v, name)
		}
	}

	m := regexp.MustCompile(`types (0x[0-9A-Fa-f]+)–(0x[0-9A-Fa-f]+)`).FindStringSubmatch(heading)
	if m == nil {
		t.Fatalf("docs/WIRE.md: fabric heading %q names no type range", heading)
	}
	lo, _ := strconv.ParseInt(m[1], 0, 64)
	hi, _ := strconv.ParseInt(m[2], 0, 64)
	for name, v := range consts {
		if v < lo || v > hi {
			t.Errorf("docs/WIRE.md: heading range %s–%s leaves out %s = %#x", m[1], m[2], name, v)
		}
	}
}

// frameConsts parses frames.go and returns the frame-type constant block,
// the one that declares fJoin, as name → value.
func frameConsts(t *testing.T) map[string]int64 {
	t.Helper()
	file, err := parser.ParseFile(token.NewFileSet(), "frames.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, decl := range file.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		out := make(map[string]int64)
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			for i, id := range vs.Names {
				lit, ok := vs.Values[i].(*ast.BasicLit)
				if !ok || lit.Kind != token.INT {
					t.Fatalf("frames.go: %s is not an integer literal", id.Name)
				}
				v, err := strconv.ParseInt(lit.Value, 0, 64)
				if err != nil {
					t.Fatal(err)
				}
				out[id.Name] = v
			}
		}
		if _, ok := out["fJoin"]; ok {
			return out
		}
	}
	t.Fatal("frames.go: no const block declares fJoin")
	return nil
}

// wireDocFrames returns the heading of docs/WIRE.md's fabric section and
// its frame table as name → type byte.
func wireDocFrames(t *testing.T) (string, map[string]int64) {
	t.Helper()
	data, err := os.ReadFile("../../docs/WIRE.md")
	if err != nil {
		t.Fatal(err)
	}
	row := regexp.MustCompile("^\\| (0x[0-9A-Fa-f]+) +\\| `(\\w+)`")
	heading := ""
	rows := make(map[string]int64)
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "## ") {
			if heading != "" {
				break
			}
			if strings.Contains(line, "(`internal/fabric`)") {
				heading = line
			}
			continue
		}
		if heading == "" {
			continue
		}
		if m := row.FindStringSubmatch(line); m != nil {
			v, _ := strconv.ParseInt(m[1], 0, 64)
			if _, dup := rows[m[2]]; dup {
				t.Errorf("docs/WIRE.md: %s has two rows", m[2])
			}
			rows[m[2]] = v
		}
	}
	if heading == "" {
		t.Fatal("docs/WIRE.md: no section heading names (`internal/fabric`)")
	}
	return heading, rows
}
