package shadow

import "ddprof/internal/sig"

// Backend registration: "shadow", the classical exact paged store, resolved
// through the sig registry; internal/core imports this package for the side
// effect so every binary and ddprofd session can select it.
func init() {
	sig.Register(sig.Backend{
		Name: "shadow",
		New: func(sp sig.Spec) (sig.Store, error) {
			if err := sp.Only(); err != nil {
				return nil, err
			}
			return New(), nil
		},
	})
}
