// Package netsim models the slice of the Internet the paper's measurements
// touch: IPv4 addresses, their autonomous systems (ASes), and coarse
// geolocation. The countermeasures of Section 6.4 key on exactly this
// tuple — per-IP rate limits and AS-level blocks — and Figure 8 plots the
// per-IP and per-AS like volumes of the two largest collusion networks.
//
// The model is deliberately simple: an Internet is a set of AS records,
// each owning one or more CIDR prefixes; addresses are allocated from a
// prefix deterministically. Two of the paper's findings are encoded as
// first-class concepts: bulletproof-hosting ASes (hublaa.me routed its
// 6,000-address pool through two of them) and per-country member traffic
// (Tables 2 and 5 report the country mix of collusion network visitors).
package netsim

import (
	"fmt"
	"net/netip"
	"sort"
	"sync"
)

// ASN identifies an autonomous system.
type ASN uint32

// AS describes one autonomous system in the simulated Internet.
type AS struct {
	Number ASN
	Name   string
	// Country is the ISO-like country label the AS is registered in.
	Country string
	// Bulletproof marks ASes operated by abuse-tolerant hosting providers
	// (paper Sec. 6.4, citing Alrwais et al.). AS-level blocking targets
	// these.
	Bulletproof bool
	prefixes    []netip.Prefix
}

// Internet maps addresses to ASes and allocates addresses from AS pools.
// It is safe for concurrent use.
type Internet struct {
	mu       sync.RWMutex
	ases     map[ASN]*AS
	prefixes []prefixEntry // sorted by prefix address for lookup
	nextHost map[string]uint64
}

type prefixEntry struct {
	prefix netip.Prefix
	asn    ASN
}

// NewInternet returns an empty Internet.
func NewInternet() *Internet {
	return &Internet{
		ases:     make(map[ASN]*AS),
		nextHost: make(map[string]uint64),
	}
}

// RegisterAS adds an AS with its prefixes. It returns an error if the ASN
// is already registered or a prefix is invalid/overlapping an existing one.
func (in *Internet) RegisterAS(as AS, prefixes ...string) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	if _, ok := in.ases[as.Number]; ok {
		return fmt.Errorf("netsim: AS%d already registered", as.Number)
	}
	parsed := make([]netip.Prefix, 0, len(prefixes))
	for _, p := range prefixes {
		pfx, err := netip.ParsePrefix(p)
		if err != nil {
			return fmt.Errorf("netsim: AS%d: %w", as.Number, err)
		}
		pfx = pfx.Masked()
		for _, existing := range in.prefixes {
			if existing.prefix.Overlaps(pfx) {
				return fmt.Errorf("netsim: AS%d prefix %v overlaps AS%d prefix %v",
					as.Number, pfx, existing.asn, existing.prefix)
			}
		}
		parsed = append(parsed, pfx)
	}
	rec := as
	rec.prefixes = parsed
	in.ases[as.Number] = &rec
	for _, pfx := range parsed {
		in.prefixes = append(in.prefixes, prefixEntry{prefix: pfx, asn: as.Number})
	}
	sort.Slice(in.prefixes, func(i, j int) bool {
		return in.prefixes[i].prefix.Addr().Less(in.prefixes[j].prefix.Addr())
	})
	return nil
}

// LookupAS returns the AS record owning addr, if any.
func (in *Internet) LookupAS(addr netip.Addr) (AS, bool) {
	in.mu.RLock()
	defer in.mu.RUnlock()
	for _, e := range in.prefixes {
		if e.prefix.Contains(addr) {
			return *in.ases[e.asn], true
		}
	}
	return AS{}, false
}

// LookupASString is LookupAS for textual addresses; it returns false for
// unparseable input.
func (in *Internet) LookupASString(addr string) (AS, bool) {
	a, err := netip.ParseAddr(addr)
	if err != nil {
		return AS{}, false
	}
	return in.LookupAS(a)
}

// Allocate returns the next unused address from the given AS's pools.
// Addresses are handed out sequentially per prefix, skipping the network
// address, so allocation is deterministic.
func (in *Internet) Allocate(asn ASN) (netip.Addr, error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	as, ok := in.ases[asn]
	if !ok {
		return netip.Addr{}, fmt.Errorf("netsim: AS%d not registered", asn)
	}
	for _, pfx := range as.prefixes {
		key := pfx.String()
		host := in.nextHost[key] + 1 // skip network address
		addr := addrAtOffset(pfx, host)
		if pfx.Contains(addr) {
			in.nextHost[key] = host
			return addr, nil
		}
	}
	return netip.Addr{}, fmt.Errorf("netsim: AS%d address pools exhausted", asn)
}

// AllocateN allocates n addresses from the AS, spanning prefixes as needed.
func (in *Internet) AllocateN(asn ASN, n int) ([]netip.Addr, error) {
	addrs := make([]netip.Addr, 0, n)
	for i := 0; i < n; i++ {
		a, err := in.Allocate(asn)
		if err != nil {
			return addrs, err
		}
		addrs = append(addrs, a)
	}
	return addrs, nil
}

// addrAtOffset returns the address at the given host offset within the
// prefix (offset 0 is the network address).
func addrAtOffset(pfx netip.Prefix, offset uint64) netip.Addr {
	base := pfx.Addr().As4()
	v := uint64(base[0])<<24 | uint64(base[1])<<16 | uint64(base[2])<<8 | uint64(base[3])
	v += offset
	var out [4]byte
	out[0] = byte(v >> 24)
	out[1] = byte(v >> 16)
	out[2] = byte(v >> 8)
	out[3] = byte(v)
	return netip.AddrFrom4(out)
}
