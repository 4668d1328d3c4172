package repro

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"unicode"
)

// docFiles are the documents held to the code: the README, the verify skill
// and every file in docs/.
func docFiles(t *testing.T) []string {
	t.Helper()
	docs, err := filepath.Glob(filepath.Join("docs", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) == 0 {
		t.Fatal("docs/ holds no .md file")
	}
	return append([]string{"README.md", filepath.Join(".claude", "skills", "verify", "SKILL.md")}, docs...)
}

// TestDocsNameWhatExists fails when a document cites a test that is not
// declared, a package directory that is not there, or a relative link or
// #anchor that resolves to nothing. A cited test is a backticked Test…,
// Fuzz… or Benchmark… identifier; in a -run, -bench or -fuzz pattern each
// alternative is a regular expression and must match a declared name. A
// path is internal/<pkg> or cmd/<name>, with whatever segments follow it.
func TestDocsNameWhatExists(t *testing.T) {
	declared, err := declaredTests(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range docFiles(t) {
		text, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range docProblems(filepath.ToSlash(f), string(text), declared) {
			t.Error(p)
		}
	}
}

// TestDocsCheckerRules runs the checker over a document that breaks each
// rule once, beside citations of each kind that hold.
func TestDocsCheckerRules(t *testing.T) {
	declared := map[string]bool{"TestDocsNameWhatExists": true, "FuzzVerdicts": true}
	doc := "# Title\n\n## A `code` heading & more\n\n" +
		"`TestDocsNameWhatExists` and `TestGone` in `internal/abft` and\n" +
		"`internal/gone`; `go test -run 'TestDocs|Verdicts/x' ./internal/abft/abft.go`,\n" +
		"`go test -bench Nope`; [up](#title), [here](#a-code-heading--more), [lost](#lost),\n" +
		"[perf](docs/PERFORMANCE.md#parallelism), [gone](docs/GONE.md),\n" +
		"[moved](docs/PERFORMANCE.md#performances).\n\n" +
		"```sh\ngo test -fuzz FuzzVerdicts ./cmd/resload/nothing.go\n# not a heading\n```\n" +
		"[fenced](#not-a-heading)\n"
	got := docProblems("fixture.md", doc, declared)
	want := []string{
		"fixture.md:5: test TestGone is declared nowhere",
		"fixture.md:6: no directory internal/gone",
		"fixture.md:7: -bench pattern Nope matches no declared test",
		"fixture.md:7: link #lost: no such heading in fixture.md",
		"fixture.md:8: link docs/GONE.md: no such file",
		"fixture.md:9: link docs/PERFORMANCE.md#performances: no such heading in docs/PERFORMANCE.md",
		"fixture.md:12: no such path cmd/resload/nothing.go",
		"fixture.md:15: link #not-a-heading: no such heading in fixture.md",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("checker reported\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// declaredTests returns the names of the module's top-level Test, Fuzz,
// Benchmark and Example functions.
func declaredTests(root string) (map[string]bool, error) {
	fset := token.NewFileSet()
	names := map[string]bool{}
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); p != root && (n == "testdata" || strings.HasPrefix(n, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && testName.MatchString(fn.Name.Name) {
				names[fn.Name.Name] = true
			}
		}
		return nil
	})
	return names, err
}

var (
	testName    = regexp.MustCompile(`^(Test|Fuzz|Benchmark|Example)`)
	citedTest   = regexp.MustCompile(`\b(Test|Fuzz|Benchmark)[A-Z0-9_]\w*`)
	patternArg  = regexp.MustCompile("(?:^|\\s)-(run|bench|fuzz)[=\\s]+('[^']*'|\"[^\"]*\"|[^\\s'\"`]+)")
	codeSpan    = regexp.MustCompile("`[^`]+`")
	pkgPath     = regexp.MustCompile(`\b(?:internal|cmd)/\w+((?:/[\w.-]*\w)*)`)
	mdLink      = regexp.MustCompile(`\]\(([^)\s]+)\)`)
	linkScheme  = regexp.MustCompile(`^[a-zA-Z][a-zA-Z0-9+.-]*:`)
	headingLine = regexp.MustCompile(`^#{1,6}\s+(.*?)\s*#*\s*$`)
)

// docProblems checks one document, named file (relative to the module
// root), against the declared tests and the module's tree.
func docProblems(file, text string, declared map[string]bool) []string {
	type problem struct {
		line int
		msg  string
	}
	var found []problem
	report := func(off int, format string, args ...any) {
		found = append(found, problem{strings.Count(text[:off], "\n") + 1, fmt.Sprintf(format, args...)})
	}
	prose, fences := splitFences(text)

	// Code: the fenced blocks and the code spans of the prose, at their
	// offsets in text. A span may run over a line break.
	code := fences
	for _, m := range codeSpan.FindAllStringIndex(prose, -1) {
		code = append(code, [2]int{m[0], m[1]})
	}
	for _, c := range code {
		chunk := text[c[0]:c[1]]
		seen := map[int]bool{}
		for _, m := range patternArg.FindAllStringSubmatchIndex(chunk, -1) {
			if line := chunk[strings.LastIndex(chunk[:m[2]], "\n")+1 : m[2]]; strings.Contains(line, "go run") {
				continue // a command's own flag, not go test's
			}
			flag, arg := chunk[m[2]:m[3]], strings.Trim(chunk[m[4]:m[5]], `'"`)
			for i := m[4]; i < m[5]; i++ {
				seen[i] = true
			}
			for _, alt := range alternatives(arg) {
				if !patternMatches(alt, declared) {
					report(c[0]+m[2], "-%s pattern %s matches no declared test", flag, alt)
				}
			}
		}
		for _, m := range citedTest.FindAllStringIndex(chunk, -1) {
			if name := chunk[m[0]:m[1]]; !seen[m[0]] && !declared[name] {
				report(c[0]+m[0], "test %s is declared nowhere", name)
			}
		}
	}

	// Paths, anywhere in the document.
	for _, m := range pkgPath.FindAllStringSubmatchIndex(text, -1) {
		full := text[m[0]:m[1]]
		dir := text[m[0]:m[2]]
		if st, err := os.Stat(dir); err != nil || !st.IsDir() {
			report(m[0], "no directory %s", dir)
		} else if _, err := os.Stat(full); full != dir && err != nil {
			report(m[0], "no such path %s", full)
		}
	}

	// Links, in the prose outside code.
	blank := []byte(prose)
	for _, m := range codeSpan.FindAllStringIndex(prose, -1) {
		for i := m[0]; i < m[1]; i++ {
			if blank[i] != '\n' {
				blank[i] = ' '
			}
		}
	}
	for _, m := range mdLink.FindAllSubmatchIndex(blank, -1) {
		target := string(blank[m[2]:m[3]])
		if linkScheme.MatchString(target) {
			continue
		}
		path, anchor, _ := strings.Cut(target, "#")
		doc, docText := file, text
		if path != "" {
			doc = filepath.ToSlash(filepath.Join(filepath.Dir(file), path))
			b, err := os.ReadFile(doc)
			if err != nil {
				if st, serr := os.Stat(doc); serr != nil || !st.IsDir() || anchor != "" {
					report(m[0], "link %s: no such file", target)
				}
				continue
			}
			docText = string(b)
		}
		if anchor != "" && !headingSlugs(docText)[anchor] {
			report(m[0], "link %s: no such heading in %s", target, doc)
		}
	}

	sort.SliceStable(found, func(i, j int) bool { return found[i].line < found[j].line })
	out := make([]string, len(found))
	for i, p := range found {
		out[i] = fmt.Sprintf("%s:%d: %s", file, p.line, p.msg)
	}
	return out
}

// splitFences returns text with its fenced code blocks blanked (line
// breaks kept, so offsets hold) and the blocks' spans.
func splitFences(text string) (string, [][2]int) {
	prose := []byte(text)
	var fences [][2]int
	start, off := -1, 0
	for _, line := range strings.SplitAfter(text, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			if start < 0 {
				start = off
			} else {
				fences = append(fences, [2]int{start, off + len(line)})
				start = -1
			}
		}
		if start >= 0 || strings.HasPrefix(strings.TrimSpace(line), "```") {
			for i := off; i < off+len(line); i++ {
				if prose[i] != '\n' {
					prose[i] = ' '
				}
			}
		}
		off += len(line)
	}
	return string(prose), fences
}

// alternatives splits a go test pattern at its top-level bars and keeps,
// of each alternative, the part before the first subtest slash.
func alternatives(pattern string) []string {
	var out []string
	depth, from := 0, 0
	for i := 0; i <= len(pattern); i++ {
		if i < len(pattern) {
			switch pattern[i] {
			case '(':
				depth++
			case ')':
				depth--
			}
			if pattern[i] != '|' || depth > 0 {
				continue
			}
		}
		alt, _, _ := strings.Cut(pattern[from:i], "/")
		if alt = strings.TrimSuffix(strings.TrimPrefix(alt, "^"), "$"); alt != "" {
			out = append(out, alt)
		}
		from = i + 1
	}
	return out
}

func patternMatches(pattern string, declared map[string]bool) bool {
	re, err := regexp.Compile(pattern)
	if err != nil {
		return false
	}
	for name := range declared {
		if re.MatchString(name) {
			return true
		}
	}
	return false
}

// headingSlugs returns the anchors a renderer gives the document's headings:
// lower case, punctuation dropped, spaces as hyphens, a repeated slug
// numbered from -1. Lines inside fenced blocks are not headings.
func headingSlugs(text string) map[string]bool {
	prose, _ := splitFences(text)
	slugs := map[string]bool{}
	count := map[string]int{}
	for _, line := range strings.Split(prose, "\n") {
		m := headingLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		var b strings.Builder
		for _, r := range strings.ToLower(m[1]) {
			switch {
			case r == ' ':
				b.WriteByte('-')
			case r == '-' || r == '_' || unicode.IsLetter(r) || unicode.IsMark(r) || unicode.IsDigit(r):
				b.WriteRune(r)
			}
		}
		slug := b.String()
		if n := count[slug]; n > 0 {
			slugs[fmt.Sprintf("%s-%d", slug, n)] = true
		} else {
			slugs[slug] = true
		}
		count[slug]++
	}
	return slugs
}
