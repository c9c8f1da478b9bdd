#include "storage/file_store.h"

#include <algorithm>

#include "util/logging.h"

namespace seemore {
namespace storage {
namespace {

Bytes EncodeCommitRecord(uint64_t seq, const Batch& batch) {
  Encoder enc;
  enc.Reserve(1 + VarintSize(seq) + batch.EncodedSize());
  enc.PutU8(kWalCommit);
  enc.PutVarint(seq);
  batch.EncodeTo(enc);
  return enc.Take();
}

}  // namespace

FileDurableStore::FileDurableStore(StorageMedium* medium,
                                   const DurabilityOptions& options,
                                   const CostModel& costs)
    : medium_(medium),
      options_(options),
      costs_(costs),
      wal_(medium, WalOptions{options.segment_bytes, options.fsync_interval}),
      snapshots_(medium) {
  SEEMORE_CHECK(options_.enabled) << "FileDurableStore needs enabled options";
}

Result<RecoveredImage> FileDurableStore::Recover(const StorageMedium& medium) {
  RecoveredImage image;
  Result<WalRecovery> wal = RecoverWal(medium);
  SEEMORE_RETURN_IF_ERROR(wal.status());
  image.truncated_bytes = wal->truncated_bytes;
  image.wal_records = wal->payloads.size();
  image.snapshots = SnapshotStore::LoadAll(medium, &image.snapshots_skipped);

  for (Bytes& payload : wal->payloads) {
    // Recovered batches keep the record they came from: their ops are
    // slices of it rather than one allocation each.
    const Payload record(std::move(payload));
    Decoder dec = MakeDecoder(record);
    switch (dec.GetU8()) {
      case kWalCommit: {
        const uint64_t seq = dec.GetVarint();
        Result<Batch> batch =
            dec.ok() ? Batch::Decode(record.Slice(dec.pos(), dec.remaining()))
                     : Result<Batch>(dec.status());
        // The frame CRC already matched, so an undecodable payload means a
        // writer bug or in-place tampering stronger than a bit flip: refuse
        // rather than guess.
        if (!batch.ok()) {
          return Status::Corruption("wal commit record undecodable");
        }
        image.commits.emplace_back(seq, *std::move(batch));
        break;
      }
      case kWalView: {
        const uint64_t view = dec.GetVarint();
        const uint8_t mode = dec.GetU8();
        if (!dec.AtEnd()) {
          return Status::Corruption("wal view record undecodable");
        }
        // Later records win: the log is append-ordered.
        image.has_view = true;
        image.view = view;
        image.mode = mode;
        break;
      }
      default:
        return Status::Corruption("unknown wal record type");
    }
  }
  return image;
}

Status FileDurableStore::OpenFresh() { return wal_.Create(); }

Status FileDurableStore::OpenAfterRecovery(const RecoveredImage& image) {
  // Compact: the recovered image IS the log now. Old segments (including
  // any torn tail) and damaged snapshot/cert files are removed, then a
  // fresh WAL is seeded with the state a future recovery must see.
  for (const std::string& name : medium_->List("wal-")) {
    SEEMORE_RETURN_IF_ERROR(medium_->Remove(name));
  }
  for (const std::string& name : medium_->List("snap-")) {
    const bool valid = std::any_of(
        image.snapshots.begin(), image.snapshots.end(),
        [&](const RecoveredSnapshot& s) {
          return SnapshotFileName(s.seq) == name;
        });
    if (!valid) SEEMORE_RETURN_IF_ERROR(medium_->Remove(name));
  }
  for (const std::string& name : medium_->List("cert-")) {
    const bool valid = std::any_of(
        image.snapshots.begin(), image.snapshots.end(),
        [&](const RecoveredSnapshot& s) {
          return s.has_cert && CertFileName(s.seq) == name;
        });
    if (!valid) SEEMORE_RETURN_IF_ERROR(medium_->Remove(name));
  }

  SEEMORE_RETURN_IF_ERROR(wal_.Create());
  if (image.has_view) {
    has_view_ = true;
    view_ = image.view;
    mode_ = image.mode;
    SEEMORE_RETURN_IF_ERROR(wal_.Append(EncodeViewRecord(), 0));
  }
  const RecoveredSnapshot* latest = image.Latest();
  const uint64_t base = latest != nullptr ? latest->seq : 0;
  for (const auto& [seq, batch] : image.commits) {
    if (seq <= base) continue;  // covered by the snapshot
    SEEMORE_RETURN_IF_ERROR(wal_.Append(EncodeCommitRecord(seq, batch), seq));
    last_commit_seq_ = std::max(last_commit_seq_, seq);
  }
  SEEMORE_RETURN_IF_ERROR(wal_.Sync());
  // No CPU is bound yet, so nothing above was charged: recovery work
  // happens while the replica is down (its wall-clock cost is the outage).
  charged_syncs_ = wal_.sync_count();
  charged_segments_ = wal_.segments_created();
  return Status::Ok();
}

void FileDurableStore::ChargeSyncDelta() {
  const uint64_t syncs = wal_.sync_count();
  if (syncs > charged_syncs_) {
    Charge(costs_.fsync * static_cast<SimTime>(syncs - charged_syncs_));
    charged_syncs_ = syncs;
  }
}

Bytes FileDurableStore::EncodeViewRecord() const {
  Encoder enc;
  enc.PutU8(kWalView);
  enc.PutVarint(view_);
  enc.PutU8(mode_);
  return enc.Take();
}

void FileDurableStore::Append(const Bytes& payload, uint64_t watermark) {
  Charge(costs_.StorageWriteCost(payload.size() + kWalFrameHeaderBytes));
  Status st = wal_.Append(payload, watermark);
  SEEMORE_CHECK(st.ok()) << "wal append failed: " << st.ToString();
  // A roll just sealed a segment: restate the current view at the head of
  // the new one so segment GC can never orphan the latest view record.
  if (wal_.segments_created() > charged_segments_) {
    charged_segments_ = wal_.segments_created();
    if (has_view_) {
      st = wal_.Append(EncodeViewRecord(), 0);
      SEEMORE_CHECK(st.ok()) << "wal view restate failed: " << st.ToString();
    }
  }
  ChargeSyncDelta();
}

void FileDurableStore::AppendCommit(uint64_t seq, const Batch& batch) {
  last_commit_seq_ = std::max(last_commit_seq_, seq);
  Append(EncodeCommitRecord(seq, batch), seq);
}

void FileDurableStore::NoteView(uint64_t view, uint8_t mode) {
  has_view_ = true;
  view_ = view;
  mode_ = mode;
  Append(EncodeViewRecord(), 0);
  // View durability is unconditional: a restarted replica that forgot its
  // view could accept a stale primary's proposals.
  Status st = wal_.Sync();
  SEEMORE_CHECK(st.ok()) << st.ToString();
  ChargeSyncDelta();
}

void FileDurableStore::SaveSnapshot(uint64_t seq, const Digest& digest,
                                    const Bytes& snapshot) {
  Charge(costs_.StorageWriteCost(snapshot.size()));
  Status st = snapshots_.Save(seq, digest, snapshot);
  SEEMORE_CHECK(st.ok()) << st.ToString();
  if (options_.fsync_interval == 1) {
    // Strict durability: the snapshot is flushed at the cut. With batching
    // the flush is deferred to NoteStable, leaving the half-written-snapshot
    // window the power-loss scenarios probe.
    st = snapshots_.SyncAt(seq);
    SEEMORE_CHECK(st.ok()) << st.ToString();
    Charge(costs_.fsync);
  }
}

void FileDurableStore::NoteStable(uint64_t seq, const CheckpointCert& cert) {
  Status st = snapshots_.SaveCert(seq, cert);
  SEEMORE_CHECK(st.ok()) << st.ToString();
  st = snapshots_.SyncAt(seq);
  SEEMORE_CHECK(st.ok()) << st.ToString();
  Charge(costs_.fsync);
  // GC is gated on the stable snapshot actually being durable here: a
  // replica that advanced its stable point via a cert alone (still fetching
  // the state) must keep its log until the snapshot lands.
  if (medium_->Exists(SnapshotFileName(seq))) {
    st = snapshots_.GcBelow(seq);
    SEEMORE_CHECK(st.ok()) << st.ToString();
    st = wal_.GcBelow(seq);
    SEEMORE_CHECK(st.ok()) << st.ToString();
  }
}

}  // namespace storage
}  // namespace seemore
