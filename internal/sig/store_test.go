package sig

import (
	"regexp"
	"strings"
	"testing"
)

// TestParseSpec pins the closed set: the three forms are accepted, an
// explicit slots=N wins over the caller's default, and everything else is
// refused with the message that names the forms.
func TestParseSpec(t *testing.T) {
	for _, tc := range []struct {
		spec  string
		def   int
		slots int
		exact bool
	}{
		{"", 0, defaultSlots, false},
		{"", 4097, 4097, false},
		{"signature", -3, defaultSlots, false},
		{"signature", MaxSlots, MaxSlots, false},
		{"signature:slots=1m", 7, 1 << 20, false},
		{"signature:slots=64k", MaxSlots + 1, 64 << 10, false},
		{"perfect", MaxSlots + 1, 0, true},
	} {
		slots, exact, err := parseSpec(tc.spec, tc.def)
		if err != nil || slots != tc.slots || exact != tc.exact {
			t.Errorf("parseSpec(%q, %d) = %d, %v, %v; want %d, %v", tc.spec, tc.def, slots, exact, err, tc.slots, tc.exact)
		}
	}
	for _, spec := range []string{
		"signature:", "signature:slots", "signature:slots=", "signature:slots=1m,slots=2m",
		"signature:bogus=1", "signature:slots=-1", "signature:slots=0x10", "signature:slots=1t",
		"perfect:slots=4", "Signature", " signature", "no-such-backend", "hybrid:slots=1m,exact=4096",
	} {
		if _, _, err := parseSpec(spec, 0); err == nil || !strings.Contains(err.Error(), specForms) {
			t.Errorf("parseSpec(%q): err = %v, want one naming %q", spec, err, specForms)
		}
	}
}

// TestSpecInt: a slots value takes k/m/g binary suffixes, and any count past
// MaxSlots, however it is spelled, is refused naming the limit.
func TestSpecInt(t *testing.T) {
	for s, want := range map[string]int{"64k": 64 << 10, "2M": 2 << 20, "1g": 1 << 30, "123": 123, "1073741824": MaxSlots} {
		if got, err := parseSize(s); err != nil || got != want {
			t.Errorf("parseSize(%q) = %d, %v; want %d", s, got, err, want)
		}
	}
	for _, s := range []string{"1073741825", "1025m", "2g", "4194304g", "99999999999999999999", "18446744073709551615k"} {
		if _, err := parseSize(s); err == nil || !strings.Contains(err.Error(), "past 1073741824 (sig.MaxSlots)") {
			t.Errorf("parseSize(%q): err = %v, want the MaxSlots refusal", s, err)
		}
	}
}

func TestOpenStore(t *testing.T) {
	st, err := OpenStore("", 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	if g, ok := st.(*Signature); !ok || g.m != 1<<10 {
		t.Errorf("default store = %T, want a *Signature of 1024 slots", st)
	}
	if st, err := OpenStore("perfect", 0); err != nil {
		t.Error(err)
	} else if _, ok := st.(*PerfectSignature); !ok {
		t.Errorf("perfect = %T", st)
	}
	// A default slot count passes the same limit as a spec's: the daemon's
	// and the CLI's sizes reach the page directory only through here.
	for _, slots := range []int{MaxSlots + 1, 1 << 31, 1 << 52} {
		if _, err := OpenStore("", slots); err == nil || !strings.Contains(err.Error(), "(sig.MaxSlots)") {
			t.Errorf("default of %d slots: err = %v, want the MaxSlots refusal", slots, err)
		}
	}
	if _, err := OpenStore("shadow", 0); err == nil || !strings.Contains(err.Error(), "baseline of ddexp stores") {
		t.Errorf("shadow: err = %v", err)
	}
}

func TestEstimateStoreBytes(t *testing.T) {
	// StoreBytes is Bytes() of the store the same spec opens, in the mode its
	// engine and its profiler's worker count will put it in.
	for _, stamps := range []bool{false, true} {
		for _, workers := range []int{0, 1, 2, 3, 4, 16} {
			for _, tc := range []struct {
				spec  string
				slots int
			}{{"signature:slots=1024", 0}, {"signature", 4097}, {"signature", 6_250_000}, {"", 1 << 21}} {
				b, err := StoreBytes(tc.spec, tc.slots, workers, stamps)
				if err != nil || b == 0 {
					t.Fatalf("%q estimate: %d, %v", tc.spec, b, err)
				}
				st, err := OpenStore(tc.spec, tc.slots)
				if err != nil {
					t.Fatal(err)
				}
				st.(*Signature).Shard(workers)
				if stamps {
					st.(*Signature).KeepStamps()
				}
				if b != st.Bytes() {
					t.Errorf("%q/%d workers=%d stamps=%v: estimate %d, store reports %d", tc.spec, tc.slots, workers, stamps, b, st.Bytes())
				}
			}
		}
	}
	if b, _ := StoreBytes("signature:slots=1024", 0, 1, false); b != 1024*pairBytes {
		t.Errorf("signature bytes = %d, want %d", b, 1024*pairBytes)
	}
	if b, _ := StoreBytes("signature:slots=1024", 0, 4, true); b != 256*stampedBytes {
		t.Errorf("one of four workers' signature bytes = %d, want %d", b, 256*stampedBytes)
	}
	if b, err := StoreBytes("perfect", 0, 1, true); err != nil || b != 0 {
		t.Errorf("perfect must be unbounded (0), got %d, %v", b, err)
	}
	if _, err := StoreBytes("signature:slots=4194304g", 0, 1, false); err == nil {
		t.Error("StoreBytes admitted a signature past MaxSlots")
	}
}

// acceptedSpec is the three forms, spelled out independently of parseSpec.
var acceptedSpec = regexp.MustCompile(`^(|signature|perfect|signature:slots=[0-9]+[kKmMgG]?)$`)

// FuzzBackendSpec: OpenStore never panics on a spec of up to 256 bytes (the
// handshake's limit), accepts only the three forms, and never builds a
// signature past MaxSlots, whatever the caller's default.
func FuzzBackendSpec(f *testing.F) {
	for _, s := range []string{
		"", "signature", "signature:slots=1m", "perfect",
		"hybrid:slots=1m,exact=4096", "shadow", "hashtab:buckets=64k",
		"signature:slots=4194304g", "signature:slots=1g", "signature:slots=1025m",
		"signature:slots=0", "signature:slots=18446744073709551616", "perfect:slots=4", "x:k=1k,j=2g",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if len(s) > 256 {
			return
		}
		for _, def := range []int{0, 1 << 20, MaxSlots + 1} {
			st, err := OpenStore(s, def)
			if err != nil {
				continue
			}
			if !acceptedSpec.MatchString(s) {
				t.Fatalf("OpenStore accepted %q, none of the three forms", s)
			}
			switch st := st.(type) {
			case *PerfectSignature:
				if s != "perfect" {
					t.Fatalf("%q opened the perfect table", s)
				}
			case *Signature:
				if st.m < 1 || st.m > MaxSlots {
					t.Fatalf("%q (default %d) opened a signature of %d slots", s, def, st.m)
				}
			default:
				t.Fatalf("%q opened a %T", s, st)
			}
		}
	})
}
