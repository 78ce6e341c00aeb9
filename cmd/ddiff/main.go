// Command ddiff compares two saved dependence profiles — the workflow
// behind input-sensitivity studies (paper §I): profile the same program
// under different inputs, diff the dependence sets, and see exactly what
// each input contributed.
//
// Usage:
//
//	ddiff a b
//
// Each file's format is read from the file: one that starts with the DDP1
// magic is a binary profile (ddprof -format binary), anything else a text
// profile (ddprof's default output). Two binary profiles are diffed as
// streams: DDP1 writes dependences in canonical key order, so the two files
// merge-join record by record and neither profile is ever materialized in
// memory — diffing two million-dependence stored profiles costs two records
// of state. Any other pair is loaded and diffed as sets of dependences named
// as the text format names them. A ddprofd session's profile is one of these
// files: `ddprof -remote … -format binary -o` saves it, byte-identical to the
// local run's.
//
// Like diff(1), ddiff exits 0 when the profiles are identical, 1 when they
// differ, and 2 on trouble: bad usage, or a profile it cannot read.
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"

	"ddprof/internal/dep"
	"ddprof/internal/loc"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ddiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: ddiff <profile-a> <profile-b>")
		return 2
	}
	pathA, pathB := fs.Arg(0), fs.Arg(1)
	d, err := diff(pathA, pathB)
	if err != nil {
		fmt.Fprintln(stderr, "ddiff:", err)
		return 2
	}
	fmt.Fprintf(stdout, "%d common dependences\n", d.Common)
	printSide(stdout, fmt.Sprintf("only in %s (%d)", pathA, len(d.OnlyA)), d.OnlyA)
	printSide(stdout, fmt.Sprintf("only in %s (%d)", pathB, len(d.OnlyB)), d.OnlyB)
	if d.Identical() {
		fmt.Fprintln(stdout, "profiles are identical")
		return 0
	}
	return 1 // differences found: non-zero like diff(1)
}

// profile is an open profile file and whether it is DDP1.
type profile struct {
	f      *os.File
	r      *bufio.Reader
	binary bool
}

func open(path string) (*profile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	r := bufio.NewReader(f)
	magic, _ := r.Peek(len(dep.BinaryMagic))
	return &profile{f: f, r: r, binary: bytes.Equal(magic, []byte(dep.BinaryMagic))}, nil
}

// set loads the whole profile, whichever its format, keyed by variable name
// on the shared table: a key names its variable by an index into its own
// file's table, so keys of two files loaded apart compare only once both
// index one table. An INIT's variable is dropped, as the text format drops
// it.
func (p *profile) set(shared *loc.Table) (*dep.Set, error) {
	var set *dep.Set
	var tab *loc.Table
	var err error
	if p.binary {
		set, _, tab, err = dep.Decode(p.r)
	} else {
		set, _, tab, err = dep.Parse(p.r)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.f.Name(), err)
	}
	keyed := dep.NewSet()
	set.Range(func(k dep.Key, _ dep.Stats) bool {
		if k.Type == dep.INIT {
			k.Var = 0
		} else {
			k.Var = shared.Var(tab.VarName(k.Var))
		}
		keyed.Add(k, false, false, false)
		return true
	})
	return keyed, nil
}

func diff(pathA, pathB string) (dep.DiffResult, error) {
	a, err := open(pathA)
	if err != nil {
		return dep.DiffResult{}, err
	}
	defer a.f.Close()
	b, err := open(pathB)
	if err != nil {
		return dep.DiffResult{}, err
	}
	defer b.f.Close()
	if a.binary && b.binary {
		da, err := dep.NewDecoder(a.r)
		if err != nil {
			return dep.DiffResult{}, fmt.Errorf("%s: %w", pathA, err)
		}
		db, err := dep.NewDecoder(b.r)
		if err != nil {
			return dep.DiffResult{}, fmt.Errorf("%s: %w", pathB, err)
		}
		return dep.DiffStreams(da, db)
	}
	shared := loc.NewTable()
	sa, err := a.set(shared)
	if err != nil {
		return dep.DiffResult{}, err
	}
	sb, err := b.set(shared)
	if err != nil {
		return dep.DiffResult{}, err
	}
	return dep.Diff(sa, sb), nil
}

func printSide(w io.Writer, header string, ks []dep.Key) {
	fmt.Fprintln(w, header)
	for _, k := range ks {
		if k.Type == dep.INIT {
			fmt.Fprintf(w, "  %v %v|%d {INIT}\n", k.Type, k.Sink, k.SinkThread)
			continue
		}
		fmt.Fprintf(w, "  %v %v|%d <- %v|%d\n", k.Type, k.Sink, k.SinkThread, k.Src, k.SrcThread)
	}
}
