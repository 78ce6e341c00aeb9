// Package workloads provides the benchmark programs the evaluation runs:
// minilang re-implementations of the NAS Parallel Benchmarks kernels, the
// Starbench suite, and splash2x.water-spatial, scaled to laptop size.
//
// Each workload preserves what the paper's experiments measure:
//
//   - the kernel's loop structure and per-loop parallelizability (Table II's
//     "# OMP" inventories, with the paper's non-identified loops realized as
//     genuine reduction/scan dependences);
//   - the ratio of distinct addresses to total accesses (Table I's FPR/FNR
//     drivers), scaled down by a constant factor;
//   - for the Starbench pthread variants, the cross-thread sharing pattern
//     (Figures 6/8) and for water-spatial the neighbour-exchange
//     communication pattern (Figure 9).
package workloads

import (
	. "ddprof/internal/minilang"
)

// Config scales a workload.
type Config struct {
	// Scale multiplies the default problem size. 1.0 (the default when 0)
	// is the "small" configuration used by tests; experiments may raise it.
	Scale float64
	// Threads is the number of target threads for parallel variants
	// (default 4, like the paper's pthread runs).
	Threads int
}

func (c Config) norm() Config {
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.Threads <= 0 {
		c.Threads = 4
	}
	return c
}

// n scales a base size, keeping at least lo.
func (c Config) n(base, lo int) int {
	v := int(float64(base) * c.Scale)
	if v < lo {
		return lo
	}
	return v
}

// Workload describes one benchmark.
type Workload struct {
	Name  string
	Suite string // "nas", "starbench" or "splash"
	// LOC is the paper's Table I LOC column (Starbench) for display.
	LOC int
	// OMPLoops and Identified are the Table II ground truth (NAS): how many
	// loops the OpenMP version annotates and how many of those profiled
	// dependences show as parallelizable.
	OMPLoops   int
	Identified int
	// Build returns the sequential program, nil for a workload that exists
	// only as a pthread program (water-spatial).
	Build func(Config) *Program
	// BuildParallel returns the pthread-style program, nil if the paper did
	// not evaluate one.
	BuildParallel func(Config) *Program
}

// Starbench returns the 11 Starbench workloads in the paper's Table I order.
func Starbench() []Workload {
	return []Workload{
		{Name: "c-ray", Suite: "starbench", LOC: 620, Build: CRay, BuildParallel: CRayParallel},
		{Name: "kmeans", Suite: "starbench", LOC: 603, Build: KMeans, BuildParallel: KMeansParallel},
		{Name: "md5", Suite: "starbench", LOC: 661, Build: MD5, BuildParallel: MD5Parallel},
		{Name: "ray-rot", Suite: "starbench", LOC: 1425, Build: RayRot, BuildParallel: RayRotParallel},
		{Name: "rgbyuv", Suite: "starbench", LOC: 483, Build: RGBYUV, BuildParallel: RGBYUVParallel},
		{Name: "rotate", Suite: "starbench", LOC: 871, Build: Rotate, BuildParallel: RotateParallel},
		{Name: "rot-cc", Suite: "starbench", LOC: 1122, Build: RotCC, BuildParallel: RotCCParallel},
		{Name: "streamcluster", Suite: "starbench", LOC: 860, Build: StreamCluster, BuildParallel: StreamClusterParallel},
		{Name: "tinyjpeg", Suite: "starbench", LOC: 1922, Build: TinyJPEG, BuildParallel: TinyJPEGParallel},
		{Name: "bodytrack", Suite: "starbench", LOC: 3614, Build: BodyTrack, BuildParallel: BodyTrackParallel},
		{Name: "h264dec", Suite: "starbench", LOC: 42822, Build: H264Dec, BuildParallel: H264DecParallel},
	}
}

// NAS returns the 8 NAS workloads in the paper's Table II order, with the
// table's "# OMP" and "# identified" ground truth.
func NAS() []Workload {
	return []Workload{
		{Name: "BT", Suite: "nas", OMPLoops: 30, Identified: 30, Build: BT},
		{Name: "SP", Suite: "nas", OMPLoops: 34, Identified: 34, Build: SP},
		{Name: "LU", Suite: "nas", OMPLoops: 33, Identified: 33, Build: LU},
		{Name: "IS", Suite: "nas", OMPLoops: 11, Identified: 8, Build: IS},
		{Name: "EP", Suite: "nas", OMPLoops: 1, Identified: 1, Build: EP},
		{Name: "CG", Suite: "nas", OMPLoops: 16, Identified: 9, Build: CG},
		{Name: "MG", Suite: "nas", OMPLoops: 14, Identified: 14, Build: MG},
		{Name: "FT", Suite: "nas", OMPLoops: 8, Identified: 7, Build: FT},
	}
}

// All returns every workload with a sequential build (NAS then Starbench).
func All() []Workload {
	return append(NAS(), Starbench()...)
}

// Catalog returns every workload a name can resolve to: All plus
// water-spatial, the one parallel-only entry (Build == nil).
func Catalog() []Workload {
	return append(All(), Workload{Name: "water-spatial", Suite: "splash", BuildParallel: WaterSpatial})
}

// ByName finds a workload in the catalog.
func ByName(name string) (Workload, bool) {
	for _, w := range Catalog() {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// --- shared minilang building blocks -----------------------------------

// lcgNext returns the expression (1597*x + 51749) mod 244944 — a small LCG
// whose intermediate products stay exactly representable in float64, giving
// deterministic pseudo-random sequences inside minilang programs.
func lcgNext(x Expr) Expr {
	return Mod(Add(Mul(Ci(1597), x), Ci(51749)), Ci(244944))
}

// initArrayLCG declares arr[n] and fills it with LCG values seeded by seed.
// The fill loop is parallel in principle but stated sequentially (seeded
// chain), so it is not annotated OMP.
func initArrayLCG(b *Block, arr string, n Expr, seed int, name string) {
	b.DeclArr(arr, n)
	b.Decl(arr+"_seed", Ci(seed))
	b.For("i", Ci(0), n, Ci(1), LoopOpt{Name: name}, func(l *Block) {
		l.Assign(arr+"_seed", lcgNext(V(arr+"_seed")))
		l.Set(arr, V("i"), V(arr+"_seed"))
	})
}

// copyLoop adds an OMP-clean loop dst[i] = src[i] * scale + off.
func copyLoop(b *Block, name, dst, src string, n Expr, scale, off float64) {
	b.For("i", Ci(0), n, Ci(1), LoopOpt{Name: name, OMP: true}, func(l *Block) {
		l.Set(dst, V("i"), Add(Mul(Idx(src, V("i")), C(scale)), C(off)))
	})
}

// stencilLoop adds an OMP-clean 1-D stencil dst[i] = (src[i-1]+src[i]+src[i+1])/3
// over the interior. Reading a *different* array keeps it loop-independent.
func stencilLoop(b *Block, name, dst, src string, n Expr) {
	b.For("i", Ci(1), Sub(n, Ci(1)), Ci(1), LoopOpt{Name: name, OMP: true}, func(l *Block) {
		l.Set(dst, V("i"),
			Div(Add(Idx(src, Sub(V("i"), Ci(1))), Idx(src, V("i")), Idx(src, Add(V("i"), Ci(1)))), C(3)))
	})
}

// axpyLoop adds an OMP-clean loop y[i] = y[i] + a*x[i].
func axpyLoop(b *Block, name, y, x string, n Expr, a Expr) {
	b.For("i", Ci(0), n, Ci(1), LoopOpt{Name: name, OMP: true}, func(l *Block) {
		l.Set(y, V("i"), Add(Idx(y, V("i")), Mul(a, Idx(x, V("i")))))
	})
}

// dotLoop adds a dot-product reduction loop into scalar out. The OpenMP
// version parallelizes it with a reduction clause, so it counts as OMP, but
// its profiled dependences are loop-carried RAW — the paper's non-identified
// loops (CG, FT, IS).
func dotLoop(b *Block, name, out, x, y string, n Expr) {
	b.Assign(out, Ci(0))
	b.For("i", Ci(0), n, Ci(1), LoopOpt{Name: name, OMP: true}, func(l *Block) {
		l.Reduce(out, OpAdd, Mul(Idx(x, V("i")), Idx(y, V("i"))))
	})
}

// seqSweepLoop adds a genuinely sequential (non-OMP) recurrence
// a[i] = a[i-1]*c + b[i], e.g. a forward substitution sweep.
func seqSweepLoop(b *Block, name, arr, src string, n Expr, c float64) {
	b.For("i", Ci(1), n, Ci(1), LoopOpt{Name: name}, func(l *Block) {
		l.Set(arr, V("i"), Add(Mul(Idx(arr, Sub(V("i"), Ci(1))), C(c)), Idx(src, V("i"))))
	})
}
