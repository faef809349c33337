package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"sync"

	"aanoc/internal/codec"
	"aanoc/internal/dram"
	"aanoc/internal/system"
)

// Fingerprint returns a canonical hash of the fully resolved
// configuration, and whether the configuration is cacheable at all.
// Two configs that resolve to the same simulation — e.g. one spelling a
// default explicitly (Cycles: 200000) and one leaving it zero — share a
// fingerprint, so a grid that revisits a point simulates it once.
//
// The key is the SHA-256 of the resolved config in internal/codec's
// form, the one a store entry's payload is written in: every length is
// prefixed and the bytes decode back to the config, so two configs
// share a key only if they are equal. Every field is in it but the two
// system.Config tags `codec:"-"`: the trace-capture Writer and
// NoIdleSkip, with which results are identical on or off.
//
// A config carrying a trace-capture Writer is not cacheable: capture is
// a side effect that must happen per run (and the writer is identity,
// not value). Neither is one with an injected device fault: its results
// are wrong on purpose and must never be persisted or served in place of
// a clean run's. Nor one holding a non-finite float, which the form
// cannot read back.
func Fingerprint(cfg system.Config) (string, bool) {
	if cfg.Trace != nil || cfg.Fault != dram.FaultNone {
		return "", false
	}
	k := keys.Get().(*key)
	k.cfg = cfg.Resolved()
	var err error
	k.buf, err = keyPlan.Append(k.buf[:0], reflect.ValueOf(&k.cfg).Elem())
	sum := sha256.Sum256(k.buf)
	k.cfg = system.Config{} // the pool must not keep the caller's model alive
	keys.Put(k)
	if err != nil {
		return "", false
	}
	var text [2 * sha256.Size]byte
	hex.Encode(text[:], sum[:])
	return string(text[:]), true
}

var keyPlan = codec.PlanOf(reflect.TypeFor[system.Config]())

// key is Fingerprint's scratch, recycled through keys: the resolved
// config, held where the walk can address it without copying it to the
// heap, and the buffer its bytes go into. A fingerprint then allocates
// only its string.
type key struct {
	cfg system.Config
	buf []byte
}

var keys = sync.Pool{New: func() any { return &key{buf: make([]byte, 0, 4<<10)} }}
