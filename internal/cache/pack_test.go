package cache

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
)

// simulateKeys are the keys of a /v1/simulate item.
var simulateKeys = []string{"error", "class", "kernel", "n", "procs", "cycles", "instructions", "ipc",
	"alu_ops", "mem_reads", "mem_writes", "messages", "barriers", "net_conflict_cycles",
	"output_head", "metrics_checked"}

// TestPackShrinksResponses: a response item's key tokens pack to a byte
// each, and the value expands to the same bytes.
func TestPackShrinksResponses(t *testing.T) {
	AddKeys(simulateKeys...)
	v := []byte(`{"class":"IMP-III","kernel":"matmul","n":64,"procs":4,"cycles":15977,"instructions":55192,` +
		`"ipc":3.454,"alu_ops":34884,"mem_reads":8192,"mem_writes":512,"net_conflict_cycles":6,` +
		`"output_head":[1,2,3,4],"metrics_checked":true}`)
	s := pack(v)
	if got := expand(s); !bytes.Equal(got, v) {
		t.Fatalf("expand(pack(v)) = %s, want %s", got, v)
	}
	if len(s) > len(v)/2+8 {
		t.Errorf("packed %d bytes of %d; want the keys coded", len(s), len(v))
	}
}

// TestJunkKeysAddNoNames: values with keys the dictionary does not hold,
// as a misbehaving peer's fill could carry, are stored and expanded
// exactly and add no name, so the keys added before still pack.
func TestJunkKeysAddNoNames(t *testing.T) {
	AddKeys(simulateKeys...)
	before := len(dict.Load().tokens)
	s := newLRU(4, NewMetrics(nil))
	for i := range 2 * maxNames {
		v := []byte(fmt.Sprintf(`{"junk%d":1,"k%d":{"instructions":2}}`, i, i))
		s.put("k", v)
		if got, _ := s.get("k"); !bytes.Equal(got, v) {
			t.Fatalf("get = %s, put %s", got, v)
		}
	}
	if n := len(dict.Load().tokens); n != before {
		t.Fatalf("storing junk keys grew the dictionary from %d names to %d", before, n)
	}
	v := []byte(`{"class":"IMP-III","instructions":55192,"net_conflict_cycles":6}`)
	if p := pack(v); len(p) > len(v)-len(`"class":"instructions":"net_conflict_cycles":`)+3 {
		t.Errorf("a simulate item packs to %d bytes of %d after junk keys; want its keys coded", len(p), len(v))
	}
}

// TestRepeatedHitsShareOneExpansion: hits on a stored key after the
// first allocate nothing and return its bytes; a key stored again with
// other bytes returns those.
func TestRepeatedHitsShareOneExpansion(t *testing.T) {
	AddKeys(simulateKeys...)
	s := newLRU(8, NewMetrics(nil))
	v := []byte(`{"class":"IMP-III","instructions":55192,"net_conflict_cycles":6}`)
	s.put("k", v)
	if got, _ := s.get("k"); !bytes.Equal(got, v) {
		t.Fatalf("get = %s, put %s", got, v)
	}
	if n := testing.AllocsPerRun(100, func() { s.get("k") }); n != 0 {
		t.Errorf("a repeated hit allocates %v times", n)
	}
	w := []byte(`{"class":"IMP-IV","instructions":1}`)
	s.put("k", w)
	if got, _ := s.get("k"); !bytes.Equal(got, w) {
		t.Fatalf("get after a second put = %s, want %s", got, w)
	}
}

// TestPackStoresOthersAsGiven: bytes encoding/json never emits (raw
// control bytes, a leading marker, pretty-printing) come back exactly.
func TestPackStoresOthersAsGiven(t *testing.T) {
	for _, v := range [][]byte{
		nil,
		{},
		{0},
		{0, '{', '}'},
		[]byte("{\n  \"instructions\": 1\n}"),
		[]byte("{\"instructions\":\x01}"),
		[]byte("\x1f\x05"),
		[]byte(`"unterminated`),
		[]byte(`{"a\"b":1,"c\\":2,"d\\\"":3}`),
	} {
		if got := expand(pack(v)); !bytes.Equal(got, v) {
			t.Errorf("expand(pack(%q)) = %q", v, got)
		}
	}
}

// FuzzPackExpand: pack-then-expand is the identity, on encoding/json
// output built from the fuzzed strings, keys and values both (escaped
// quotes, backslashes, non-ASCII, control characters), and on the raw
// input itself.
func FuzzPackExpand(f *testing.F) {
	f.Add("instructions", `a"b\c`, int64(5), []byte(`{"x":1}`))
	f.Add("net_conflict_cycles", "héllo ", int64(-1), []byte("\x00\x01\x1f"))
	f.Add(`k"ey`, "\x01\x1f", int64(1<<40), []byte(`{"a":"b":"c"}`))
	AddKeys(simulateKeys...)
	f.Fuzz(func(t *testing.T, key, val string, num int64, raw []byte) {
		AddKeys(key) // any name, escaped quotes and backslashes too
		doc := map[string]any{
			key:            val,
			"class":        val,
			"instructions": num,
			"nested":       map[string]any{key: []any{val, num, true, nil}},
		}
		v, err := json.Marshal(doc)
		if err != nil {
			t.Skip()
		}
		for _, in := range [][]byte{v, raw} {
			if got := expand(pack(in)); !bytes.Equal(got, in) {
				t.Fatalf("expand(pack(%q)) = %q", in, got)
			}
		}
	})
}
