// Package store is the durability layer under racelogic databases: it
// serializes database state to versioned, checksummed binary snapshots
// and journals individual mutations to append-only, CRC-framed
// write-ahead logs.  Together the two formats let a long-running search
// service outlive not just a clean shutdown but a crash: the newest
// snapshot restores the bulk of the state fast, and replaying the WAL
// tail recovers every mutation acknowledged after it was taken.
//
// The racelogic database is partitioned into shards, and the store
// mirrors that layout on disk.  A durable directory holds one manifest
// (the layout commit point, naming the shard count), one snapshot file
// per shard, and one WAL file — the shard's journal — per shard:
//
//	db.manifest            "RLMANI", format, shard count, generation, CRC-32
//	shard-0000.g0.snap …   one Snapshot per shard
//	shard-0000.g0.wal …    one WAL per shard
//
// The manifest is written last when a layout is created or rewritten,
// and every shard file name carries the manifest's layout generation,
// so a crash mid-bootstrap or mid-reshard leaves exactly one complete,
// authoritative layout — the one the manifest names; files of other
// generations are ignored.
//
// # Snapshot format
//
// A snapshot holds everything needed to reconstruct one shard exactly:
// the options fingerprint that shaped its engines and seed index, the
// shard header, the mutation counters, and every slot — live or
// tombstoned — with its stable ID and entry, in slot order.  It is a
// capture of the shard, not a compaction of it, so a reload reproduces
// every slot position.  The k-mer seed index is derived entirely from
// the entries and is not serialized: the loader rebuilds it.
//
// Wire format (format version 3), all integers varint/uvarint framed:
//
//	"RLSNAP"  magic
//	uvarint   format version
//	uvarint   shard number        ┐
//	uvarint   shard count         │ shard header
//	varint    global version      ┘
//	string    library name        ┐
//	string    protein matrix      │
//	uvarint   clock-gate region   │ options fingerprint
//	bool      one-hot encoding    │ (shard count is deliberately not
//	uvarint   seed-index k        │ part of it: partitioning never
//	varint    default threshold   │ changes a report, so state may
//	varint    default top-K       │ reopen under any count)
//	varint    default workers     ┘
//	varint    shard mutation sequence
//	uvarint   next entry ID
//	uvarint   slot count, then per slot: uvarint ID, string sequence,
//	          bool tombstoned
//	uint32 LE CRC-32 (IEEE) of every preceding byte
//
// A bool is a uvarint holding 0 or 1; any other value is refused.
// Read accepts format version 3 only and refuses any other version by
// number: format 2 carried a serialized seed index and no tombstones,
// and format 1 no shard header.  Read takes the file whole, decodes the
// fields from memory in file order — the entries are substrings of one
// copy of the file — and then checks the checksum over the payload in
// one pass.  A length field is untrusted until that check, so the
// decoder refuses any string length or slot count the remaining bytes
// cannot hold before it allocates anything for it.  Snapshot files are
// written to a temporary sibling and renamed into place, so a crash
// mid-save never corrupts the previous snapshot.
//
// # Write-ahead log format
//
// Each journal is append-only.  Unlike a snapshot — whose one
// checksum trails the whole file — the WAL frames and checksums every
// record independently, because a crash tears the file at an arbitrary
// byte and the clean prefix must stay loadable:
//
//	"RLWAL"   magic
//	uvarint   format version
//	then per record:
//	  uvarint   payload length
//	  payload   (see below)
//	  uint32 LE CRC-32 (IEEE) of the payload
//
// A record payload is one shard's slice of one journaled mutation:
//
//	byte      op: 1 insert, 2 remove, 3 compact
//	varint    shard sequence after applying the record (gapless per
//	          shard — the replay-integrity check)
//	varint    global mutation number (one multi-shard mutation
//	          journals one record per touched shard, all carrying the
//	          same number, and recovery takes the maximum across shards)
//	insert:   uvarint count, then per entry: uvarint ID, string sequence
//	remove:   uvarint count, then per entry: uvarint ID
//	compact:  nothing further
//
// Replay accepts format version 2 only; a journal headed by any other
// version is refused loudly.  Replay walks records in order and stops
// cleanly at the first torn or corrupt one: a record whose frame runs
// past end-of-file, whose CRC mismatches, or whose payload does not
// decode ends the replay at the last intact record — corrupt bytes
// never surface as entries.  OpenWAL truncates that torn tail before
// appending, so the journal stays a clean prefix of acknowledged
// mutations.  Records carry the shard sequence they produced, which
// makes replay idempotent against the snapshot: records at or below the
// shard snapshot's sequence are skipped, so it never matters whether a
// crash landed between "snapshot renamed" and "WAL truncated".
//
// # Truncation and group commit
//
// A shard's journal is one file.  It grows until a checkpoint has
// captured every record in it into a snapshot, and Reset then empties
// it back to a bare header; the database reads its byte size only as a
// checkpoint trigger.
//
// Appends never fsync on their own.  Callers needing acknowledged-
// means-durable call WAL.GroupSync after releasing their ordering
// locks; it elects one leader to flush for every waiter — group
// commit — so N concurrent mutations cost far fewer than N fsyncs per
// shard.
package store
