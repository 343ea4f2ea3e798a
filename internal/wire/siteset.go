package wire

import (
	"sort"
	"strconv"
	"strings"
)

// SiteSet is the bit vector of site identifiers that the fault-tolerance
// refinements attach to RELEASELOCK messages: the set of daemons that hold
// an up-to-date copy of the replicas after push-based dissemination
// (Section 4). The synchronization thread consults it to decide whether a
// granted thread needs a transfer at all.
type SiteSet struct {
	bits []uint64
}

// NewSiteSet returns a set containing the given sites.
func NewSiteSet(sites ...SiteID) SiteSet {
	var s SiteSet
	for _, id := range sites {
		s.Add(id)
	}
	return s
}

// Add inserts a site into the set.
func (s *SiteSet) Add(id SiteID) {
	word := int(id / 64)
	for len(s.bits) <= word {
		s.bits = append(s.bits, 0)
	}
	s.bits[word] |= 1 << (id % 64)
}

// Remove deletes a site from the set.
func (s *SiteSet) Remove(id SiteID) {
	word := int(id / 64)
	if word < len(s.bits) {
		s.bits[word] &^= 1 << (id % 64)
	}
}

// Contains reports whether the set holds the site.
func (s SiteSet) Contains(id SiteID) bool {
	word := int(id / 64)
	return word < len(s.bits) && s.bits[word]&(1<<(id%64)) != 0
}

// Len reports the number of sites in the set.
func (s SiteSet) Len() int {
	n := 0
	for _, w := range s.bits {
		for ; w != 0; w &= w - 1 {
			n++
		}
	}
	return n
}

// Sites returns the members in ascending order.
func (s SiteSet) Sites() []SiteID {
	out := make([]SiteID, 0, s.Len())
	for wi, w := range s.bits {
		for b := 0; b < 64; b++ {
			if w&(1<<b) != 0 {
				out = append(out, SiteID(wi*64+b))
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Clone returns an independent copy of the set.
func (s SiteSet) Clone() SiteSet {
	bits := make([]uint64, len(s.bits))
	copy(bits, s.bits)
	return SiteSet{bits: bits}
}

// String renders the set as "{1,3,5}".
func (s SiteSet) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, id := range s.Sites() {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatUint(uint64(id), 10))
	}
	b.WriteByte('}')
	return b.String()
}

// encode writes the bit vector with a word-count prefix.
func (s SiteSet) encode(w *Writer) {
	// Trim trailing zero words so equal sets encode identically.
	bits := s.bits
	for len(bits) > 0 && bits[len(bits)-1] == 0 {
		bits = bits[:len(bits)-1]
	}
	w.U16(uint16(len(bits)))
	for _, word := range bits {
		w.U64(word)
	}
}

// encodedSize reports the bytes encode writes: the word-count prefix plus
// the trailing-zero-trimmed words (so it matches encode exactly).
func (s SiteSet) encodedSize() int {
	bits := s.bits
	for len(bits) > 0 && bits[len(bits)-1] == 0 {
		bits = bits[:len(bits)-1]
	}
	return 2 + 8*len(bits)
}

// decodeSiteSet reads a bit vector written by encode.
func decodeSiteSet(r *Reader) SiteSet {
	return decodeSiteSetN(r, int(r.U16()))
}

// decodeSiteSetN reads n words whose count the caller already consumed.
func decodeSiteSetN(r *Reader, n int) SiteSet {
	bits := make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		bits = append(bits, r.U64())
	}
	return SiteSet{bits: bits}
}
