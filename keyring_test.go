package kbt

import (
	"reflect"
	"testing"
)

func TestKeyring(t *testing.T) {
	k := keyring{cap: 3}
	if k.has("") || k.has("a") || k.len() != 0 {
		t.Fatal("empty ring retains something")
	}
	k.add("") // never retained
	if k.len() != 0 {
		t.Fatal("empty key retained")
	}
	for _, key := range []string{"a", "b", "c"} {
		k.add(key)
	}
	k.add("b") // re-add does not refresh the key's age
	if !reflect.DeepEqual(k.keys(), []string{"a", "b", "c"}) {
		t.Fatalf("keys = %v", k.keys())
	}
	k.add("d") // evicts "a", the oldest
	if k.has("a") || !k.has("b") || !k.has("d") || k.len() != 3 {
		t.Fatalf("after eviction: keys=%v", k.keys())
	}
	if !reflect.DeepEqual(k.keys(), []string{"b", "c", "d"}) {
		t.Fatalf("order after eviction: %v", k.keys())
	}
	// An evicted key re-adds as new — and pushes the window forward.
	k.add("a")
	if !reflect.DeepEqual(k.keys(), []string{"c", "d", "a"}) {
		t.Fatalf("re-add of evicted key: %v", k.keys())
	}
}
