package repro

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
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
// declared, a package directory that is not there, a flag nothing
// declares, or a relative link or #anchor that resolves to nothing. A
// cited test is a backticked Test…, Fuzz… or Benchmark… identifier; in a
// -run, -bench or -fuzz pattern each alternative is a regular expression
// and must match a declared name. A path is internal/<pkg> or cmd/<name>,
// with whatever segments follow it. A cited flag is one in a code span
// that starts with a flag, or one that follows a command of the module on
// a code line; a flag or FlagSet call anywhere in the module declares it,
// tests included, and the go command's own test and build flags count too.
func TestDocsNameWhatExists(t *testing.T) {
	declared, err := scanModule()
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
	declared := known{
		tests:    map[string]bool{"TestDocsNameWhatExists": true, "FuzzVerdicts": true},
		flags:    map[string]bool{"spawn": true},
		commands: map[string]bool{"cmd/resrouter": true, "resrouter": true},
	}
	doc := "# Title\n\n## A `code` heading & more\n\n" +
		"`TestDocsNameWhatExists` and `TestGone` in `internal/abft` and\n" +
		"`internal/gone`; `go test -run 'TestDocs|Verdicts/x' ./internal/abft/abft.go`,\n" +
		"`go test -bench Nope`; [up](#title), [here](#a-code-heading--more), [lost](#lost),\n" +
		"[perf](docs/PERFORMANCE.md#parallelism), [gone](docs/GONE.md),\n" +
		"[moved](docs/PERFORMANCE.md#performances).\n\n" +
		"```sh\ngo test -fuzz FuzzVerdicts ./cmd/resload/nothing.go\n# not a heading\n```\n" +
		"[fenced](#not-a-heading)\n" +
		"`-spawn 3` beside `bin/resrouter -spawn 2 -restart-max 5s -race 2>&1 | grep -x -e y`.\n"
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
		"fixture.md:16: flag -restart-max is declared nowhere",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("checker reported\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// known is what the documents are held to: the module's top-level Test,
// Fuzz, Benchmark and Example functions, the flags its flag and FlagSet
// calls declare, and its commands — each main package by its directory,
// the ones under cmd/ also by name (the binary), and each shell script.
type known struct {
	tests, flags, commands map[string]bool
}

// scanModule reads what is known from the files of the module, run from
// its root.
func scanModule() (known, error) {
	k := known{tests: map[string]bool{}, flags: map[string]bool{}, commands: map[string]bool{}}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); p != "." && (n == "testdata" || strings.HasPrefix(n, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		rel := filepath.ToSlash(p)
		if strings.HasSuffix(p, ".sh") {
			k.commands[rel] = true
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		test := strings.HasSuffix(p, "_test.go")
		if dir := path.Dir(rel); !test && f.Name.Name == "main" {
			k.commands[dir] = true
			if path.Dir(dir) == "cmd" {
				k.commands[path.Base(dir)] = true
			}
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && test && fn.Recv == nil && testName.MatchString(fn.Name.Name) {
				k.tests[fn.Name.Name] = true
			}
		}
		// A flag declaration is a call on package flag or on a variable
		// assigned flag.NewFlagSet(…) earlier in the file.
		sets := map[string]bool{"flag": true}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if id, ok := n.Lhs[0].(*ast.Ident); ok && len(n.Rhs) == 1 && flagCall(n.Rhs[0], sets) == "NewFlagSet" {
					sets[id.Name] = true
				}
			case *ast.CallExpr:
				if i, ok := flagNameArg[flagCall(n, sets)]; ok && i < len(n.Args) {
					if lit, ok := n.Args[i].(*ast.BasicLit); ok && lit.Kind == token.STRING {
						name, _ := strconv.Unquote(lit.Value)
						k.flags[name] = true
					}
				}
			}
			return true
		})
		return nil
	})
	return k, err
}

// flagCall returns the function or method name of a call on one of sets
// (package flag or a FlagSet variable), or "".
func flagCall(e ast.Expr, sets map[string]bool) string {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return ""
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	if x, ok := sel.X.(*ast.Ident); ok && sets[x.Name] {
		return sel.Sel.Name
	}
	return ""
}

// flagNameArg maps each flag-declaring function of package flag (and
// method of FlagSet) to the index of its name argument.
var flagNameArg = map[string]int{
	"Bool": 0, "BoolFunc": 0, "Duration": 0, "Float64": 0, "Func": 0, "Int": 0, "Int64": 0, "String": 0, "Uint": 0, "Uint64": 0,
	"BoolVar": 1, "DurationVar": 1, "Float64Var": 1, "IntVar": 1, "Int64Var": 1, "StringVar": 1, "TextVar": 1, "UintVar": 1, "Uint64Var": 1, "Var": 1,
}

// goFlags are the go command's own test and build flags, which documents
// show on go test and go build lines.
const goFlags = `args asan bench benchmem benchtime blockprofile c count cover covermode coverpkg
coverprofile cpu cpuprofile exec failfast fullpath fuzz fuzzminimizetime fuzztime gcflags json
ldflags list memprofile msan mutexprofile o outputdir parallel race run short shuffle skip tags
timeout trace trimpath v vet`

var (
	testName    = regexp.MustCompile(`^(Test|Fuzz|Benchmark|Example)`)
	citedTest   = regexp.MustCompile(`\b(Test|Fuzz|Benchmark)[A-Z0-9_]\w*`)
	patternArg  = regexp.MustCompile("(?:^|\\s)-(run|bench|fuzz)[=\\s]+('[^']*'|\"[^\"]*\"|[^\\s'\"`]+)")
	codeSpan    = regexp.MustCompile("`[^`]+`")
	pkgPath     = regexp.MustCompile(`\b(?:internal|cmd)/\w+((?:/[\w.-]*\w)*)`)
	mdLink      = regexp.MustCompile(`\]\(([^)\s]+)\)`)
	linkScheme  = regexp.MustCompile(`^[a-zA-Z][a-zA-Z0-9+.-]*:`)
	headingLine = regexp.MustCompile(`^#{1,6}\s+(.*?)\s*#*\s*$`)
	flagWord    = regexp.MustCompile(`^--?([A-Za-z][\w-]*)(?:=|$)`)
)

// docProblems checks one document, named file (relative to the module
// root), against what is known of the module and its tree.
func docProblems(file, text string, declared known) []string {
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
				if !patternMatches(alt, declared.tests) {
					report(c[0]+m[2], "-%s pattern %s matches no declared test", flag, alt)
				}
			}
		}
		for _, m := range citedTest.FindAllStringIndex(chunk, -1) {
			if name := chunk[m[0]:m[1]]; !seen[m[0]] && !declared.tests[name] {
				report(c[0]+m[0], "test %s is declared nowhere", name)
			}
		}
	}

	// Flags: each code line is split into its shell commands. A code span
	// that starts with a flag is checked whole; otherwise a command's flags
	// are checked from the first word that runs a command of the module.
	checkFlags := func(from, to int, span bool) {
		for ci, words := range shellWords(text[from:to]) {
			first := len(words)
			if span && ci == 0 && strings.HasPrefix(words[0].s, "-") {
				first = 0
			}
			for i, w := range words[:first] {
				if declared.commands[strings.TrimPrefix(w.s, "./")] || declared.commands[path.Base(w.s)] {
					first = i + 1
					break
				}
			}
			for _, w := range words[first:] {
				m := flagWord.FindStringSubmatch(w.s)
				if m != nil && !declared.flags[m[1]] && !slices.Contains(strings.Fields(goFlags), m[1]) {
					report(from+w.off, "flag %s is declared nowhere", strings.TrimSuffix(m[0], "="))
				}
			}
		}
	}
	for i, c := range code {
		if i >= len(fences) {
			checkFlags(c[0]+1, c[1]-1, true)
			continue
		}
		for off := c[0]; off < c[1]; {
			end := c[1]
			if n := strings.IndexByte(text[off:end], '\n'); n >= 0 {
				end = off + n
			}
			checkFlags(off, end, false)
			off = end + 1
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

type word struct {
	off int
	s   string
}

// shellWords splits a code line into the words of its shell commands,
// breaking commands at |, ; and & outside quotes and stopping at a #
// comment. A word keeps its quotes and its offset in line.
func shellWords(line string) [][]word {
	var cmds [][]word
	var cur []word
	start, quote := -1, byte(0)
	end := func(i int) {
		if start >= 0 {
			cur = append(cur, word{start, line[start:i]})
			start = -1
		}
	}
	for i := 0; i < len(line); i++ {
		switch c := line[i]; {
		case quote != 0:
			if c == quote {
				quote = 0
			}
			continue
		case c == '\'' || c == '"':
			quote = c
		case c == ' ' || c == '\t' || c == '\n':
			end(i)
			continue
		case c == '|' || c == ';' || c == '&':
			end(i)
			if cur != nil {
				cmds, cur = append(cmds, cur), nil
			}
			continue
		case c == '#' && start < 0:
			i = len(line)
			continue
		}
		if start < 0 {
			start = i
		}
	}
	end(len(line))
	if cur != nil {
		cmds = append(cmds, cur)
	}
	return cmds
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
