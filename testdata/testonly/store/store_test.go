package store

import "testing"

func TestStore(t *testing.T) {
	if (&Store{}).Page() != OnlyTests-1 {
		t.Fatal("Page")
	}
}
