// Command ddiff compares two saved dependence profiles — the workflow
// behind input-sensitivity studies (paper §I): profile the same program
// under different inputs, diff the dependence sets, and see exactly what
// each input contributed.
//
// Usage:
//
//	ddiff a.txt b.txt             # text profiles (ddprof default output)
//	ddiff -binary a.ddp b.ddp     # binary profiles (ddprof -format binary)
//
// Binary profiles are diffed as streams: DDP1 writes dependences in
// canonical key order, so the two files merge-join record by record and
// neither profile is ever materialized in memory — diffing two
// million-dependence stored profiles costs two records of state. A ddprofd
// session's profile is one of these files: `ddprof -remote … -format binary
// -o` saves it, byte-identical to the local run's.
package main

import (
	"flag"
	"fmt"
	"os"

	"ddprof/internal/dep"
)

func main() {
	binary := flag.Bool("binary", false, "inputs are binary profiles (ddprof -format binary)")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: ddiff [-binary] <profile-a> <profile-b>")
		os.Exit(2)
	}

	d, err := diff(flag.Arg(0), flag.Arg(1), *binary)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ddiff:", err)
		os.Exit(1)
	}
	fmt.Printf("%d common dependences\n", d.Common)
	printSide(fmt.Sprintf("only in %s (%d)", flag.Arg(0), len(d.OnlyA)), d.OnlyA)
	printSide(fmt.Sprintf("only in %s (%d)", flag.Arg(1), len(d.OnlyB)), d.OnlyB)
	if d.Identical() {
		fmt.Println("profiles are identical")
		return
	}
	os.Exit(1) // differences found: non-zero like diff(1)
}

func diff(pathA, pathB string, binary bool) (dep.DiffResult, error) {
	if binary {
		return diffBinary(pathA, pathB)
	}
	a, err := loadText(pathA)
	if err != nil {
		return dep.DiffResult{}, err
	}
	b, err := loadText(pathB)
	if err != nil {
		return dep.DiffResult{}, err
	}
	return dep.Diff(a, b), nil
}

func diffBinary(pathA, pathB string) (dep.DiffResult, error) {
	fa, err := os.Open(pathA)
	if err != nil {
		return dep.DiffResult{}, err
	}
	defer fa.Close()
	fb, err := os.Open(pathB)
	if err != nil {
		return dep.DiffResult{}, err
	}
	defer fb.Close()
	da, err := dep.NewDecoder(fa)
	if err != nil {
		return dep.DiffResult{}, fmt.Errorf("%s: %w", pathA, err)
	}
	db, err := dep.NewDecoder(fb)
	if err != nil {
		return dep.DiffResult{}, fmt.Errorf("%s: %w", pathB, err)
	}
	return dep.DiffStreams(da, db)
}

func loadText(path string) (*dep.Set, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set, _, _, err := dep.Parse(f)
	return set, err
}

func printSide(header string, ks []dep.Key) {
	fmt.Println(header)
	for _, k := range ks {
		if k.Type == dep.INIT {
			fmt.Printf("  %v %v|%d {INIT}\n", k.Type, k.Sink, k.SinkThread)
			continue
		}
		fmt.Printf("  %v %v|%d <- %v|%d\n", k.Type, k.Sink, k.SinkThread, k.Src, k.SrcThread)
	}
}
