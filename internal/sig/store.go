package sig

// The store a profile is taken with. §III-B weighs signatures against two
// exact stores, shadow memory and a bucketed hash table; those two are the
// comparison baselines of `ddexp stores` (internal/exp), not stores anyone
// profiles with. What a profiler, the CLI or a ddprofd session may ask for is
// a closed set of three spec forms:
//
//	signature           (or "") sized by the caller's default slot count
//	signature:slots=N   N with an optional k/m/g binary suffix
//	perfect             the exact ground-truth table
//
// Every slot count, a spec's or a caller's default, passes through parseSpec
// and is refused past MaxSlots, so no size reaches the page directory
// unchecked.

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// MaxSlots is the largest signature a store spec or a default slot count may
// ask for: ten times the paper's largest configuration (1e8 slots, §VI-B2),
// a page directory of 6 MiB. Larger is refused, never allocated.
const MaxSlots = 1 << 30

// defaultSlots sizes "signature" when the caller's default is not positive.
const defaultSlots = 1 << 20

// specForms ends the refusal of every spec outside the three forms.
const specForms = "want signature, signature:slots=N (k/m/g suffixes) or perfect"

// OpenStore builds the store spec names. slots sizes a signature whose spec
// carries no slots=N (not positive: 2^20).
func OpenStore(spec string, slots int) (Store, error) {
	n, exact, err := parseSpec(spec, slots)
	if err != nil {
		return nil, err
	}
	if exact {
		return NewPerfectSignature(), nil
	}
	return NewSignature(n), nil
}

// StoreBytes is Bytes() of the store OpenStore(spec, slots) builds, once a
// profiler of that many workers has taken it as one worker's store (a
// signature holds only the indices its share reaches, Signature.Shard) and,
// if stamps, a race-checking engine has made it keep them. 0 means unbounded:
// the perfect table grows with the target's address footprint.
func StoreBytes(spec string, slots, workers int, stamps bool) (uint64, error) {
	n, exact, err := parseSpec(spec, slots)
	if err != nil || exact {
		return 0, err
	}
	return tableBytes(reachable(uint64(n), uint64(max(workers, 1))), stamps), nil
}

// parseSpec resolves spec to a signature's slot count, or exact for the
// perfect table.
func parseSpec(spec string, slots int) (n int, exact bool, err error) {
	switch spec {
	case "perfect":
		return 0, true, nil
	case "", "signature":
		if slots <= 0 {
			slots = defaultSlots
		}
	default:
		size, ok := strings.CutPrefix(spec, "signature:slots=")
		if !ok {
			name, _, _ := strings.Cut(spec, ":")
			if name == "shadow" || name == "hashtab" {
				return 0, false, fmt.Errorf("sig: store %q is a §III-B baseline of ddexp stores, not a profiling store (%s)", name, specForms)
			}
			return 0, false, fmt.Errorf("sig: unknown store spec %q (%s)", spec, specForms)
		}
		if slots, err = parseSize(size); err != nil {
			return 0, false, fmt.Errorf("sig: store spec %q: %w", spec, err)
		}
	}
	if slots < 1 || slots > MaxSlots {
		return 0, false, fmt.Errorf("sig: signature of %d slots; want 1 to %d (sig.MaxSlots)", slots, MaxSlots)
	}
	return slots, false, nil
}

// parseSize parses digits with an optional k/m/g binary suffix
// (case-insensitive), refusing a count past MaxSlots before it can overflow.
func parseSize(s string) (int, error) {
	shift := 0
	if n := len(s); n > 0 {
		switch s[n-1] {
		case 'k', 'K':
			shift, s = 10, s[:n-1]
		case 'm', 'M':
			shift, s = 20, s[:n-1]
		case 'g', 'G':
			shift, s = 30, s[:n-1]
		}
	}
	v, err := strconv.ParseUint(s, 10, 64)
	if errors.Is(err, strconv.ErrRange) || err == nil && v > MaxSlots>>shift {
		return 0, fmt.Errorf("slots past %d (sig.MaxSlots)", MaxSlots)
	}
	if err != nil {
		return 0, fmt.Errorf("slots is not a size (%s)", specForms)
	}
	return int(v << shift), nil
}
