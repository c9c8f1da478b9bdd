// Probe metrics of the traced run: timed calls into one layer's public
// functions at a time, on inputs shaped like the workload (its requests,
// one consensus batch of them, the PREPARE that carries the batch, the
// frames and WAL records that hold it). They locate host time per layer;
// the end-to-end metrics never come from here.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "consensus/batch.h"
#include "crypto/digest.h"
#include "crypto/keystore.h"
#include "crypto/sha256.h"
#include "rt/frame.h"
#include "smr/command.h"
#include "smr/kv_store.h"
#include "storage/medium.h"
#include "storage/wal.h"
#include "util/logging.h"
#include "wire/messages.h"

namespace seemore {
namespace perfbench {
namespace {

/// Host time each probe runs for.
constexpr int64_t kProbeBudgetNs = 60'000'000;

/// Results feed this so no call can be optimized away.
volatile uint64_t g_sink = 0;

/// Call `fn` in doubling batches until the budget is spent; nanoseconds per
/// call.
template <typename Fn>
double NsPerCall(Fn&& fn) {
  int64_t calls = 0;
  int64_t batch = 1;
  const int64_t start = HostNowNs();
  int64_t now = start;
  while (now - start < kProbeBudgetNs) {
    for (int64_t i = 0; i < batch; ++i) fn();
    calls += batch;
    if (batch < 4096) batch *= 2;
    now = HostNowNs();
  }
  return static_cast<double>(now - start) / static_cast<double>(calls);
}

void Record(Metrics& out, const std::string& name, double value) {
  out[name] = Metric{value, LayerUnit(name)};
}

}  // namespace

void RunProbes(const ProbeShape& shape, Tracer& tracer, Metrics& out) {
  SEEMORE_CHECK(!shape.ops.empty());
  const KeyStore keystore(0x9e0b'e5c4ULL);
  Batch batch;
  for (size_t i = 0; i < shape.ops.size(); ++i) {
    Request request;
    request.client = kClientIdBase + static_cast<PrincipalId>(i);
    request.timestamp = i + 1;
    request.op = shape.ops[i];
    request.Sign(Signer(request.client, keystore));
    batch.requests.push_back(std::move(request));
  }
  const Bytes encoded_batch = batch.Encode();
  const Signer primary(0, keystore);
  SmPrepareMsg prepare;
  prepare.view = 1;
  prepare.seq = 1;
  prepare.batch = encoded_batch;
  prepare.digest = Digest::Of(encoded_batch);
  prepare.sig = primary.Sign(prepare.Header());
  const Bytes prepare_message = prepare.ToMessage();

  {
    ScopedSpan span(tracer, "probe:crypto.sha256");
    const double ns = NsPerCall(
        [&] { g_sink = g_sink + Sha256::Hash(encoded_batch)[0]; });
    Record(out, "crypto.sha256_ns_per_byte",
           ns / static_cast<double>(encoded_batch.size()));
  }
  {
    ScopedSpan span(tracer, "probe:crypto.sign");
    Request request = batch.requests.front();
    const Signer signer(request.client, keystore);
    const double ns = NsPerCall([&] {
      request.Sign(signer);
      g_sink = g_sink + request.sig.bytes()[0];
    });
    Record(out, "crypto.sign_us", ns / 1e3);
  }
  {
    ScopedSpan span(tracer, "probe:crypto.verify");
    const Request& request = batch.requests.front();
    const double ns = NsPerCall(
        [&] { g_sink = g_sink + request.VerifySignature(keystore); });
    Record(out, "crypto.verify_us", ns / 1e3);
  }
  {
    ScopedSpan span(tracer, "probe:wire.encode");
    const double ns = NsPerCall([&] {
      SmPrepareMsg msg = prepare;
      msg.batch = batch.Encode();
      g_sink = g_sink + msg.ToMessage().size();
    });
    Record(out, "wire.encode_us", ns / 1e3);
  }
  {
    ScopedSpan span(tracer, "probe:wire.decode");
    const double ns = NsPerCall([&] {
      Decoder dec(prepare_message);
      dec.GetU8();  // tag
      Result<SmPrepareMsg> msg = SmPrepareMsg::DecodeFrom(dec);
      SEEMORE_CHECK(msg.ok()) << msg.status().ToString();
      Result<Batch> decoded = Batch::Decode(msg->batch);
      SEEMORE_CHECK(decoded.ok()) << decoded.status().ToString();
      g_sink = g_sink + decoded->size();
    });
    Record(out, "wire.decode_us", ns / 1e3);
  }
  {
    ScopedSpan span(tracer, "probe:rt.frame_parse");
    // About 64 KiB of back-to-back PREPARE frames, as one socket read.
    const Bytes frame = rt::EncodeFrame(prepare_message);
    Bytes stream;
    while (stream.size() < 64 * 1024) {
      stream.insert(stream.end(), frame.begin(), frame.end());
    }
    const double ns = NsPerCall([&] {
      rt::FrameReader reader;
      SEEMORE_CHECK(reader.Feed(stream.data(), stream.size()).ok());
      Payload body;
      while (reader.Next(&body)) g_sink = g_sink + body.size();
    });
    Record(out, "rt.frame_parse_ns_per_byte",
           ns / static_cast<double>(stream.size()));
  }
  {
    ScopedSpan span(tracer, "probe:storage.wal_append");
    // The batch as a WAL record, group commit every 8 appends; a fresh
    // medium every 1024 records keeps the probe's memory bounded.
    storage::WalOptions wal_options;
    wal_options.fsync_interval = 8;
    std::unique_ptr<storage::MemMedium> medium;
    std::unique_ptr<storage::WriteAheadLog> wal;
    uint64_t appended = 0;
    const double ns = NsPerCall([&] {
      if (appended % 1024 == 0) {
        wal.reset();
        medium = std::make_unique<storage::MemMedium>();
        wal = std::make_unique<storage::WriteAheadLog>(medium.get(),
                                                       wal_options);
        SEEMORE_CHECK(wal->Create().ok());
      }
      SEEMORE_CHECK(wal->Append(encoded_batch, ++appended).ok());
    });
    Record(out, "storage.wal_append_us", ns / 1e3);
  }
  {
    ScopedSpan span(tracer, "probe:smr.kv_execute");
    KvStateMachine machine;
    size_t next = 0;
    const double ns = NsPerCall([&] {
      const Bytes& op = shape.ops[next++ % shape.ops.size()];
      g_sink = g_sink + machine.Execute(op).size();
    });
    Record(out, "smr.kv_execute_us", ns / 1e3);
  }
}

}  // namespace perfbench
}  // namespace seemore
