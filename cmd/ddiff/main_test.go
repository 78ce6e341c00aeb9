package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ddprof/internal/dep"
	"ddprof/internal/loc"
)

// TestRun drives ddiff over saved profiles of both formats: the exit code
// says identical (0), different (1) or trouble (2), as diff(1)'s does.
func TestRun(t *testing.T) {
	dir := t.TempDir()
	tab := loc.NewTable()
	x, y := tab.Var("x"), tab.Var("y")
	key := func(ty dep.Type, sink, src int, v loc.VarID) dep.Key {
		return dep.Key{Type: ty, Sink: loc.Pack(1, sink), Src: loc.Pack(1, src), Var: v}
	}
	base, other := dep.NewSet(), dep.NewSet()
	for _, k := range []dep.Key{key(dep.RAW, 3, 2, x), key(dep.WAR, 4, 3, y), {Type: dep.INIT, Sink: loc.Pack(1, 2), Var: x}} {
		base.Add(k, false, false, false)
		other.Add(k, false, false, false)
	}
	other.Add(key(dep.WAW, 5, 4, y), false, false, false)

	save := func(name string, s *dep.Set, binary bool) string {
		var buf bytes.Buffer
		var err error
		if binary {
			err = dep.Encode(&buf, s, tab, nil)
		} else {
			err = dep.Write(&buf, s, tab, nil, dep.WriterOptions{})
		}
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	baseTxt, baseDDP := save("base.txt", base, false), save("base.ddp", base, true)
	otherTxt, otherDDP := save("other.txt", other, false), save("other.ddp", other, true)
	corrupt := filepath.Join(dir, "corrupt.ddp")
	if err := os.WriteFile(corrupt, []byte(dep.BinaryMagic+"\xff\xff\xff"), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		args   []string
		code   int
		stdout []string
		stderr string
	}{
		{args: []string{baseTxt, baseTxt}, stdout: []string{"3 common dependences", "profiles are identical"}},
		{args: []string{baseDDP, otherDDP}, code: 1, stdout: []string{"3 common dependences", "only in " + baseDDP + " (0)", "only in " + otherDDP + " (1)", "  WAW 1:5|0 <- 1:4|0"}},
		{args: []string{otherTxt, baseDDP}, code: 1, stdout: []string{"only in " + otherTxt + " (1)", "  WAW 1:5|0 <- 1:4|0"}},
		{args: []string{baseTxt, baseDDP}, stdout: []string{"3 common dependences", "profiles are identical"}},
		{args: []string{baseDDP, baseTxt}, stdout: []string{"profiles are identical"}},
		{args: []string{baseTxt, filepath.Join(dir, "missing.txt")}, code: 2, stderr: "missing.txt: no such file"},
		{args: []string{baseDDP, corrupt}, code: 2, stderr: "ddiff: " + corrupt},
		{args: []string{corrupt, baseTxt}, code: 2, stderr: "ddiff: " + corrupt},
		{args: []string{"-binary", baseDDP, otherDDP}, code: 2, stderr: "flag provided but not defined: -binary"},
		{args: []string{baseTxt}, code: 2, stderr: "usage: ddiff"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != tc.code {
			t.Errorf("ddiff %v: exit %d, want %d\nstdout: %s\nstderr: %s", tc.args, code, tc.code, &stdout, &stderr)
			continue
		}
		for _, want := range tc.stdout {
			if !strings.Contains(stdout.String(), want) {
				t.Errorf("ddiff %v: stdout lacks %q:\n%s", tc.args, want, &stdout)
			}
		}
		if !strings.Contains(stderr.String(), tc.stderr) {
			t.Errorf("ddiff %v: stderr lacks %q:\n%s", tc.args, tc.stderr, &stderr)
		}
	}
}
