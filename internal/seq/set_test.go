package seq

import (
	"strings"
	"testing"
)

func TestNewSetRejectsDuplicates(t *testing.T) {
	t.Parallel()
	if _, err := NewSet(FromInts(1), FromInts(1)); err == nil {
		t.Fatal("NewSet with duplicate succeeded, want error")
	}
	s, err := NewSet(FromInts(1), FromInts(2))
	if err != nil {
		t.Fatal(err)
	}
	if s.Size() != 2 {
		t.Errorf("Size() = %d, want 2", s.Size())
	}
}

func TestSetContainsAndAt(t *testing.T) {
	t.Parallel()
	s := MustNewSet(FromInts(1, 2), FromInts(3))
	if !s.Contains(FromInts(1, 2)) {
		t.Error("Contains(1.2) = false")
	}
	if s.Contains(FromInts(2, 1)) {
		t.Error("Contains(2.1) = true")
	}
	if !s.At(1).Equal(FromInts(3)) {
		t.Errorf("At(1) = %v, want 3", s.At(1))
	}
}

func TestSetAddClonesInput(t *testing.T) {
	t.Parallel()
	x := FromInts(1, 2)
	s := MustNewSet(x)
	x[0] = 9
	if !s.At(0).Equal(FromInts(1, 2)) {
		t.Error("Set shares storage with caller's slice")
	}
}

func TestMaxLen(t *testing.T) {
	t.Parallel()
	s := MustNewSet(Seq{}, FromInts(1, 2, 3), FromInts(4))
	if got := s.MaxLen(); got != 3 {
		t.Errorf("MaxLen() = %d, want 3", got)
	}
}

func TestDistinguishingPrefix(t *testing.T) {
	t.Parallel()
	tests := []struct {
		name string
		seqs []Seq
		want int
	}{
		{"singleton", []Seq{FromInts(1, 2, 3)}, 0},
		{"differ at first", []Seq{FromInts(1), FromInts(2)}, 1},
		{"differ at third", []Seq{FromInts(1, 2, 3), FromInts(1, 2, 4)}, 3},
		{"prefix pair", []Seq{FromInts(1), FromInts(1, 2)}, 2},
		{"empty vs one", []Seq{{}, FromInts(1)}, 1},
	}
	for _, tt := range tests {
		tt := tt
		t.Run(tt.name, func(t *testing.T) {
			t.Parallel()
			s := MustNewSet(tt.seqs...)
			if got := s.DistinguishingPrefix(); got != tt.want {
				t.Errorf("DistinguishingPrefix() = %d, want %d", got, tt.want)
			}
		})
	}
}

func TestDistinguishingPrefixIsMinimal(t *testing.T) {
	t.Parallel()
	// For the full repetition-free set over 3 items the longest shared
	// structure forces beta = 3 (e.g. 0.1 vs 0.1.2 need 3 items to split;
	// actually 0.1 is fully visible at i=2... verify minimality directly).
	s, err := NewSet(RepetitionFree(3)...)
	if err != nil {
		t.Fatal(err)
	}
	beta := s.DistinguishingPrefix()
	// Check beta works and beta-1 does not.
	unique := func(i int) bool {
		seen := map[string]struct{}{}
		for _, x := range s.Seqs() {
			p := x
			if len(p) > i {
				p = p[:i]
			}
			k := p.Key()
			if _, dup := seen[k]; dup {
				return false
			}
			seen[k] = struct{}{}
		}
		return true
	}
	if !unique(beta) {
		t.Errorf("beta = %d does not identify all sequences", beta)
	}
	if beta > 0 && unique(beta-1) {
		t.Errorf("beta = %d is not minimal", beta)
	}
}

func TestSortedKeys(t *testing.T) {
	t.Parallel()
	s := MustNewSet(FromInts(2), FromInts(1))
	keys := s.SortedKeys()
	if len(keys) != 2 || keys[0] != "1" || keys[1] != "2" {
		t.Errorf("SortedKeys() = %v, want [1 2]", keys)
	}
}

func TestSetTrieRoundTrip(t *testing.T) {
	t.Parallel()
	s := MustNewSet(Seq{}, FromInts(0, 1), FromInts(0), FromInts(1, 0))
	tr := s.Trie()
	if tr.Size() != 4 {
		t.Fatalf("Trie.Size() = %d, want 4", tr.Size())
	}
	got := tr.Members()
	if len(got) != 4 {
		t.Fatalf("Members() returned %d sequences, want 4", len(got))
	}
	for _, m := range got {
		if !s.Contains(m) {
			t.Errorf("trie member %v not in set", m)
		}
	}
}

func TestTrieContains(t *testing.T) {
	t.Parallel()
	tr := NewTrie()
	tr.Insert(FromInts(0, 1))
	if tr.Contains(FromInts(0)) {
		t.Error("Contains(0) = true for non-member internal node")
	}
	if !tr.Contains(FromInts(0, 1)) {
		t.Error("Contains(0.1) = false")
	}
	tr.Insert(FromInts(0, 1)) // idempotent
	if tr.Size() != 1 {
		t.Errorf("Size() = %d after duplicate insert, want 1", tr.Size())
	}
}

func TestTrieHeightAndCount(t *testing.T) {
	t.Parallel()
	tr := NewTrie()
	tr.Insert(FromInts(0, 1, 2))
	tr.Insert(FromInts(0, 3))
	root := tr.Root()
	if got := root.Height(); got != 3 {
		t.Errorf("Height() = %d, want 3", got)
	}
	// Nodes: root, 0, 0.1, 0.1.2, 0.3 => 5.
	if got := root.CountNodes(); got != 5 {
		t.Errorf("CountNodes() = %d, want 5", got)
	}
}

func TestTrieWalkOrderAndEarlyStop(t *testing.T) {
	t.Parallel()
	tr := NewTrie()
	tr.Insert(FromInts(1))
	tr.Insert(FromInts(0))
	tr.Insert(FromInts(0, 2))
	var visited []string
	tr.Walk(func(prefix Seq, n *TrieNode) bool {
		visited = append(visited, prefix.Key())
		return true
	})
	want := "ε,0,0.2,1"
	if got := strings.Join(visited, ","); got != want {
		t.Errorf("Walk order = %s, want %s", got, want)
	}
	count := 0
	tr.Walk(func(Seq, *TrieNode) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Errorf("early-stop walk visited %d nodes, want 2", count)
	}
}
