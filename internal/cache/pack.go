package cache

import (
	"maps"
	"slices"
	"sync"
	"sync/atomic"
)

// This file is the local store's value format. A cached value is the
// encoding/json bytes of one response item, and half of those bytes are
// the item's object keys, the same few in every entry ("instructions":,
// "net_conflict_cycles":, ...). The store keeps each value packed: every
// key token "name": that the process's key dictionary holds becomes its
// code, one byte 0x01..0x1e for the first oneByte names the dictionary
// holds, or 0x1f and one more byte for the next 256. encoding/json never
// emits a raw byte below 0x20, so a code cannot be mistaken for a byte of
// the value. The packed form never leaves the process: get expands it to
// the exact bytes put stored, and the fill mesh carries those. A value
// that would not expand to itself, such as one holding a raw byte below
// 0x20, is stored as given behind a plainMark byte.
//
// The dictionary holds the key names its owner adds (AddKeys): the
// serving layer adds its response types' JSON field names as it registers
// their endpoints, so a stored value, a peer's fill included, never adds
// a name, and keys that depend on the data stay spelled out. Names are
// never removed or renumbered, so every packed value stays expandable. It
// holds at most maxNames names; past that, further names stay spelled out.

const (
	// plainMark leads a value stored as given.
	plainMark = 0x00
	// extCode leads a two-byte code: the next byte indexes the names past
	// the first oneByte.
	extCode = 0x1f
	// oneByte is how many names take a one-byte code, 0x01..0x1e.
	oneByte = extCode - 1
	// maxNames bounds the dictionary.
	maxNames = oneByte + 256
)

// keyDict is one immutable version of the key dictionary.
type keyDict struct {
	tokens []string       // tokens[i] is the key token `"name":` coded i
	codes  map[string]int // name, as spelled between the quotes -> i
}

var (
	dict   atomic.Pointer[keyDict]
	dictMu sync.Mutex // serializes AddKeys
)

func init() { dict.Store(&keyDict{codes: map[string]int{}}) }

// AddKeys adds object key names to the dictionary every local store packs
// its values with, in order, the first ones taking one-byte codes. Names
// it holds already, empty ones and those past its capacity are skipped. A
// name is matched against a key exactly as encoding/json spells it between
// the quotes, so one that would need escaping never codes a key.
func AddKeys(names ...string) {
	dictMu.Lock()
	defer dictMu.Unlock()
	d := dict.Load()
	next := &keyDict{tokens: slices.Clip(d.tokens), codes: maps.Clone(d.codes)}
	for _, name := range names {
		if _, ok := next.codes[name]; ok || name == "" || len(next.tokens) >= maxNames {
			continue
		}
		next.codes[name] = len(next.tokens)
		next.tokens = append(next.tokens, `"`+name+`":`)
	}
	if len(next.tokens) > len(d.tokens) {
		dict.Store(next)
	}
}

// appendCode appends code i.
func appendCode(dst []byte, i int) []byte {
	if i < oneByte {
		return append(dst, byte(i+1))
	}
	return append(dst, extCode, byte(i-oneByte))
}

// pack returns the stored form of v.
func pack(v []byte) string {
	var scratch [256]byte
	out, coded := packInto(scratch[:0], v)
	if !coded {
		out = v // nothing to code: v itself, if none of its bytes reads as one
	}
	s := string(out)
	if got := expand(s); got == nil || string(got) != string(v) {
		return string(append([]byte{plainMark}, v...))
	}
	return s
}

// packInto appends the packed form of v to dst and reports whether it
// coded any key. It codes a string only where a ':' follows it, which in
// compact encoding/json output is exactly an object key.
func packInto(dst, v []byte) ([]byte, bool) {
	d := dict.Load()
	coded := false
	for i := 0; i < len(v); {
		if v[i] != '"' {
			dst = append(dst, v[i])
			i++
			continue
		}
		j := i + 1 // the closing quote
		for j < len(v) && v[j] != '"' {
			if v[j] == '\\' {
				j++
			}
			j++
		}
		if j+1 < len(v) && v[j+1] == ':' {
			if code, ok := d.codes[string(v[i+1:j])]; ok {
				dst = appendCode(dst, code)
				coded = true
				i = j + 2
				continue
			}
		}
		end := min(j+1, len(v))
		dst = append(dst, v[i:end]...)
		i = end
	}
	return dst, coded
}

// expand returns the bytes that were packed into s: a new slice the
// caller may keep. It returns nil for a malformed s, which pack never
// stores.
func expand(s string) []byte {
	if s == "" {
		return []byte{}
	}
	if s[0] == plainMark {
		return []byte(s[1:])
	}
	d := dict.Load()
	n := len(s)
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 0x20 {
			continue
		}
		code, width := int(c)-1, 1
		if c == extCode {
			if i++; i == len(s) {
				return nil
			}
			code, width = oneByte+int(s[i]), 2
		}
		if c == plainMark || code >= len(d.tokens) {
			return nil
		}
		n += len(d.tokens[code]) - width
	}
	out := make([]byte, 0, n)
	plain := 0 // start of the bytes not yet copied
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 0x20 {
			continue
		}
		out = append(out, s[plain:i]...)
		code := int(c) - 1
		if c == extCode {
			i++
			code = oneByte + int(s[i])
		}
		out = append(out, d.tokens[code]...)
		plain = i + 1
	}
	return append(out, s[plain:]...)
}
