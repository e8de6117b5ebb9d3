package mypagekeeper

import (
	"strings"
	"testing"
)

// FuzzNormalizeMsg checks the per-post text path against the expressions
// it replaces: normalizeMsg against Join(Fields(ToLower(s))), and the spam
// keyword test on the normalised text against Contains on ToLower(s).
func FuzzNormalizeMsg(f *testing.F) {
	f.Fuzz(func(t *testing.T, msg string) {
		if got, want := normalizeMsg(msg), strings.Join(strings.Fields(strings.ToLower(msg)), " "); got != want {
			t.Fatalf("normalizeMsg(%q) = %q, want %q", msg, got, want)
		}
		lower := strings.ToLower(msg)
		want := false
		for _, k := range SpamKeywords {
			want = want || strings.Contains(lower, k)
		}
		if got := hasSpamKeyword(normalizeMsg(msg)); got != want {
			t.Fatalf("hasSpamKeyword(normalizeMsg(%q)) = %v, want %v", msg, got, want)
		}
	})
}

// TestNormalizeMsgKeepsCanonicalText: text already in canonical form comes
// back as the same string, with no allocation.
func TestNormalizeMsgKeepsCanonicalText(t *testing.T) {
	msg := "this actually worked for me, have a look"
	if allocs := testing.AllocsPerRun(100, func() {
		if normalizeMsg(msg) != msg {
			t.Fatal("canonical text changed")
		}
	}); allocs != 0 {
		t.Errorf("normalizeMsg of canonical text allocates %v times, want 0", allocs)
	}
}
