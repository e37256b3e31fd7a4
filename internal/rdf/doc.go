// Package rdf implements the in-memory RDF triple store GALO's knowledge base
// is built on, replacing the Apache Jena RDF API / TDB store used by the
// paper. It supports the subset GALO needs: IRIs and literals, triple
// insertion, wildcard matching over SPO and POS indexes, and N-Triples
// serialization for persistence and for the Fuseki-style HTTP endpoint.
//
// Terms are dictionary-encoded: every distinct term is interned once, as a
// copy of its bytes (a parsed document is never kept alive by a term taken
// from it), under a dense uint32 ID, and the indexes are paged tables over
// those IDs (table.go) whose posting lists are kept sorted at insert time.
// SPO is keyed by subject and POS by object, each entry a short
// predicate-sorted list. A lookup therefore hashes each term once and then
// follows three pointers per table, results come out in ID order without
// sorting, and per-probe cost depends on the size of the touched posting
// lists rather than on the total store size — the property GALO's online
// matching engine relies on (Figures 11-12 of the paper). A per-predicate
// numeric (value, subject) band index answers range-constrained subject
// lookups (BandSubjectIDs) by binary search. Reads by predicate alone
// (PredSubjectIDs, Match with only the predicate bound) scan the object
// table; probes start from a bound subject, a bound object or a band
// instead. The SPARQL evaluator reads through Snapshot's ID-level accessors.
//
// # Concurrency contract
//
// The store has epoch-snapshot semantics: every mutation batch (AddAll,
// Remove, Apply) builds a fresh immutable Snapshot by copying-on-write
// exactly what it touches — the index pages, posting-list chunks and
// dictionary level it writes, never the rest of the store, so a publication
// costs what it changes — and publishes it with ONE atomic pointer swap,
// advancing Version by the number of triples changed. Readers pin a Snapshot
// and see one consistent epoch for as long as they hold it — a SPARQL probe
// never observes a half-written template — while writers never block readers.
// Version is the invalidation key for every cache built over the store;
// a sharded knowledge base (kb.NewSharded) holds one independent store per
// shard, so each shard versions — and snapshots — on its own.
package rdf
