// Payload sharing semantics and the digest/verify memo: zero-copy multicast
// must never let one receiver's behaviour corrupt another's view of the
// frame, and the memo must be a pure cache (same answers as recomputing).

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "crypto/keystore.h"
#include "crypto/memo.h"
#include "net/network.h"
#include "smr/command.h"
#include "wire/payload.h"

namespace seemore {
namespace {

TEST(PayloadTest, WrapsBytesAndAssignsUniqueIds) {
  Payload empty;
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_EQ(empty.id(), 0u);

  Payload a(Bytes{1, 2, 3});
  Payload b(Bytes{1, 2, 3});
  EXPECT_EQ(a.ToBytes(), (Bytes{1, 2, 3}));
  EXPECT_NE(a.id(), 0u);
  // Identical contents, distinct buffers: identity is per-buffer.
  EXPECT_NE(a.id(), b.id());
  EXPECT_FALSE(a.SharesBufferWith(b));

  Payload copy = a;
  EXPECT_EQ(copy.id(), a.id());
  EXPECT_TRUE(copy.SharesBufferWith(a));
  EXPECT_EQ(copy.data(), a.data());  // no byte copy
}

TEST(PayloadViewTest, ViewAliasesTheBlockWithoutCopying) {
  auto block =
      std::make_shared<const Bytes>(Bytes{0, 1, 2, 3, 4, 5, 6, 7, 8, 9});
  Payload view = Payload::View(block, 2, 5);
  EXPECT_EQ(view.size(), 5u);
  EXPECT_EQ(view.data(), block->data() + 2);  // aliases, never copies
  EXPECT_EQ(view.ToBytes(), (Bytes{2, 3, 4, 5, 6}));
  EXPECT_NE(view.id(), 0u);

  // Two views of the same range are distinct buffer identities: the memo
  // must never conflate them (surrounding block bytes differ in general).
  Payload again = Payload::View(block, 2, 5);
  EXPECT_NE(again.id(), view.id());
  EXPECT_FALSE(again.SharesBufferWith(view));

  // The view keeps the block alive after the last external reference dies.
  const Bytes* raw = block.get();
  block.reset();
  EXPECT_EQ(view.data(), raw->data() + 2);
  EXPECT_EQ(view.ToBytes(), (Bytes{2, 3, 4, 5, 6}));
}

TEST(PayloadSliceTest, SliceOfOwnedPayloadSharesItsStorage) {
  const Payload frame(Bytes{0, 1, 2, 3, 4, 5, 6, 7, 8, 9});
  const Payload slice = frame.Slice(2, 5);
  EXPECT_TRUE(slice.SharesBufferWith(frame));
  EXPECT_EQ(slice.data(), frame.data() + 2);  // aliases, never copies
  EXPECT_EQ(slice.ToBytes(), (Bytes{2, 3, 4, 5, 6}));
  // Same buffer identity, frame-relative offset: memo keys stay
  // (frame buffer id, offset in frame).
  EXPECT_EQ(slice.id(), frame.id());
  EXPECT_EQ(slice.offset(), 2u);

  const Payload nested = slice.Slice(1, 2);
  EXPECT_TRUE(nested.SharesBufferWith(frame));
  EXPECT_EQ(nested.offset(), 3u);
  EXPECT_EQ(nested.ToBytes(), (Bytes{3, 4}));

  // An empty range pins nothing.
  const Payload empty = frame.Slice(4, 0);
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.id(), 0u);
  EXPECT_FALSE(empty.SharesBufferWith(frame));

  // Content equality is independent of sharing.
  EXPECT_EQ(slice, Payload(Bytes{2, 3, 4, 5, 6}));
  EXPECT_NE(slice, nested);

  // The slice keeps the storage alive after the frame handle is gone.
  Payload held;
  {
    const Payload transient(Bytes{7, 7, 8, 8});
    held = transient.Slice(2, 2);
  }
  EXPECT_EQ(held.ToBytes(), (Bytes{8, 8}));
}

TEST(PayloadSliceTest, SliceOfAViewIsAnExactSizeCopy) {
  auto block = std::make_shared<const Bytes>(
      Bytes{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15});
  const Payload view = Payload::View(block, 4, 8);
  const long refs_with_view = block.use_count();
  const Payload slice = view.Slice(2, 3);
  EXPECT_EQ(slice.ToBytes(), (Bytes{6, 7, 8}));
  EXPECT_EQ(slice.size(), 3u);
  // Copied out: the slice neither aliases nor pins the block.
  EXPECT_FALSE(slice.SharesBufferWith(view));
  EXPECT_TRUE(slice.data() < block->data() ||
              slice.data() >= block->data() + block->size());
  EXPECT_EQ(block.use_count(), refs_with_view);
  // A buffer of its own: fresh identity, starting at offset 0.
  EXPECT_NE(slice.id(), view.id());
  EXPECT_EQ(slice.offset(), 0u);
  // Slices of the copy share it again (the owned rule).
  EXPECT_TRUE(slice.Slice(1, 1).SharesBufferWith(slice));
}

TEST(PayloadSliceTest, DecoderSlicesPayloadsAndCopiesPlainBytes) {
  Encoder enc;
  enc.PutU8(0x11);
  enc.PutBytes(Bytes{5, 6, 7});
  enc.PutBytes(Bytes{});
  const Payload frame(enc.Take());

  Decoder dec = MakeDecoder(frame);
  EXPECT_EQ(dec.GetU8(), 0x11);
  const Payload field = dec.GetPayload();
  const Payload none = dec.GetPayload();
  ASSERT_TRUE(dec.Finish().ok());
  EXPECT_EQ(field.ToBytes(), (Bytes{5, 6, 7}));
  EXPECT_TRUE(field.SharesBufferWith(frame));
  EXPECT_EQ(field.id(), frame.id());
  EXPECT_EQ(field.offset(), 2u);  // tag + length prefix
  EXPECT_TRUE(none.empty());

  const Bytes plain_bytes = frame.ToBytes();
  Decoder plain(plain_bytes);
  plain.GetU8();
  const Payload copied = plain.GetPayload();
  EXPECT_EQ(copied, field);
  EXPECT_FALSE(copied.SharesBufferWith(frame));

  // Overrunning length prefixes fail the decoder like GetBytes does.
  const Payload bad(Bytes{9, 1, 2});
  Decoder overrun = MakeDecoder(bad);
  EXPECT_TRUE(overrun.GetPayload().empty());
  EXPECT_FALSE(overrun.ok());
}

TEST(PayloadSliceTest, DecodedRequestOutlivesItsFrame) {
  const KeyStore keystore(5);
  const Signer signer(kClientIdBase, keystore);
  Request request;
  request.client = kClientIdBase;
  request.timestamp = 3;
  request.op = Bytes(4096, 0x42);
  request.Sign(signer);

  Request decoded;
  {
    const Payload frame(request.ToMessage());
    Decoder dec = MakeDecoder(frame);
    ASSERT_EQ(dec.GetU8(), kMsgRequest);
    Result<Request> out = Request::DecodeFrom(dec);
    ASSERT_TRUE(out.ok());
    decoded = std::move(out).value();
    EXPECT_TRUE(decoded.op.SharesBufferWith(frame));
  }
  // The frame handle is gone; the op keeps its bytes alive (the sanitizer
  // build turns any dangling read here into a failure).
  EXPECT_EQ(decoded, request);
  EXPECT_TRUE(decoded.VerifySignature(keystore));
}

TEST(CryptoMemoTest, DigestMemoHitsOnSameRangeOfSameBuffer) {
  CryptoMemo memo;  // per-run instance, like the one each Cluster owns
  Payload p(Bytes(1000, 0xab));
  const uint64_t misses_before = memo.digest_misses();
  const uint64_t hits_before = memo.digest_hits();

  Digest first = memo.DigestOf(p.id(), 10, p.data() + 10, 100);
  Digest again = memo.DigestOf(p.id(), 10, p.data() + 10, 100);
  EXPECT_EQ(first, again);
  EXPECT_EQ(first, Digest::Of(p.data() + 10, 100));  // same answer as real
  EXPECT_EQ(memo.digest_misses(), misses_before + 1);
  EXPECT_EQ(memo.digest_hits(), hits_before + 1);

  // A different range of the same buffer is a distinct entry.
  Digest other = memo.DigestOf(p.id(), 20, p.data() + 20, 100);
  EXPECT_EQ(other, Digest::Of(p.data() + 20, 100));

  // Buffer id 0 (plain bytes) never caches.
  const uint64_t misses_mid = memo.digest_misses();
  const uint64_t hits_mid = memo.digest_hits();
  memo.DigestOf(0, 0, p.data(), 100);
  memo.DigestOf(0, 0, p.data(), 100);
  EXPECT_EQ(memo.digest_misses(), misses_mid);
  EXPECT_EQ(memo.digest_hits(), hits_mid);
}

TEST(CryptoMemoTest, VerifyMemoRunsTheCheckOncePerFrame) {
  CryptoMemo memo;
  Payload p(Bytes{1, 2, 3});
  int calls = 0;
  auto verify = [&] {
    ++calls;
    return true;
  };
  EXPECT_TRUE(memo.Verify(p.id(), /*signer=*/3, /*slot=*/7, verify));
  EXPECT_TRUE(memo.Verify(p.id(), 3, 7, verify));
  EXPECT_EQ(calls, 1);
  // A different signer or slot on the same frame is a different question.
  EXPECT_TRUE(memo.Verify(p.id(), 4, 7, verify));
  EXPECT_TRUE(memo.Verify(p.id(), 3, 8, verify));
  EXPECT_EQ(calls, 3);
  // Negative verdicts are cached too.
  int neg_calls = 0;
  auto fail = [&] {
    ++neg_calls;
    return false;
  };
  EXPECT_FALSE(memo.Verify(p.id(), 5, 1, fail));
  EXPECT_FALSE(memo.Verify(p.id(), 5, 1, fail));
  EXPECT_EQ(neg_calls, 1);
  // Unshared bytes (id 0) always verify for real.
  EXPECT_FALSE(memo.Verify(0, 5, 1, fail));
  EXPECT_EQ(neg_calls, 2);
}

/// Records every delivered payload (by shared handle, not by copy).
class PayloadRecorder : public MessageHandler {
 public:
  void OnMessage(PrincipalId, Payload payload) override {
    payloads.push_back(std::move(payload));
  }
  std::vector<Payload> payloads;
};

/// A "Byzantine" receiver that mutates its view of every message. The only
/// mutable view a handler can get is a copy — this pins down that mutating
/// it never touches the shared buffer.
class MutatingRecorder : public MessageHandler {
 public:
  void OnMessage(PrincipalId, Payload payload) override {
    Bytes mine = payload.ToBytes();  // the only way to a mutable view
    for (auto& b : mine) b ^= 0xff;
    mutated.push_back(std::move(mine));
    payloads.push_back(std::move(payload));
  }
  std::vector<Bytes> mutated;
  std::vector<Payload> payloads;
};

NetworkConfig QuietConfig() {
  NetworkConfig config;
  config.intra_private = {Micros(100), 0};
  config.intra_public = {Micros(100), 0};
  return config;
}

TEST(PayloadAliasingTest, MulticastSharesOneBufferAcrossReceivers) {
  Simulator sim;
  SimNetwork net(&sim, QuietConfig());
  PayloadRecorder handlers[4];
  for (int i = 0; i < 4; ++i) {
    net.AddNode(i, Zone::kPrivate, &handlers[i], nullptr);
  }
  const Bytes frame{9, 8, 7, 6};
  net.Multicast(0, {0, 1, 2, 3}, frame);
  sim.Run();
  ASSERT_EQ(handlers[1].payloads.size(), 1u);
  ASSERT_EQ(handlers[2].payloads.size(), 1u);
  ASSERT_EQ(handlers[3].payloads.size(), 1u);
  // Zero-copy: all receivers alias the same allocation.
  EXPECT_TRUE(
      handlers[1].payloads[0].SharesBufferWith(handlers[2].payloads[0]));
  EXPECT_TRUE(
      handlers[2].payloads[0].SharesBufferWith(handlers[3].payloads[0]));
  EXPECT_EQ(handlers[1].payloads[0].ToBytes(), frame);
}

TEST(PayloadAliasingTest, DuplicatedDeliveryAliasesTheSameFrame) {
  Simulator sim;
  NetworkConfig config = QuietConfig();
  config.duplicate_probability = 1.0;
  SimNetwork net(&sim, config);
  PayloadRecorder a, b;
  net.AddNode(0, Zone::kPrivate, &a, nullptr);
  net.AddNode(1, Zone::kPrivate, &b, nullptr);
  net.Send(0, 1, Bytes{1, 2, 3});
  sim.Run();
  ASSERT_EQ(b.payloads.size(), 2u);  // duplicated in flight
  EXPECT_TRUE(b.payloads[0].SharesBufferWith(b.payloads[1]));
  EXPECT_EQ(b.payloads[0].ToBytes(), (Bytes{1, 2, 3}));
  EXPECT_EQ(b.payloads[1].ToBytes(), (Bytes{1, 2, 3}));
}

TEST(PayloadAliasingTest, MutatingReceiverCannotCorruptOtherReceivers) {
  Simulator sim;
  NetworkConfig config = QuietConfig();
  config.duplicate_probability = 1.0;  // duplicates AND a mutator in one run
  SimNetwork net(&sim, config);
  MutatingRecorder byzantine;
  PayloadRecorder honest1, honest2;
  net.AddNode(0, Zone::kPrivate, &honest1, nullptr);
  net.AddNode(1, Zone::kPrivate, &byzantine, nullptr);
  net.AddNode(2, Zone::kPrivate, &honest2, nullptr);

  const Bytes frame{0x10, 0x20, 0x30, 0x40, 0x50};
  net.Multicast(0, {0, 1, 2}, frame);
  sim.Run();

  ASSERT_GE(byzantine.payloads.size(), 2u);  // duplication happened
  ASSERT_GE(honest2.payloads.size(), 2u);
  // The mutator really did flip its copies...
  for (const Bytes& m : byzantine.mutated) EXPECT_NE(m, frame);
  // ...but every aliased view of the shared buffer is pristine, including
  // the mutator's own second (duplicated) delivery.
  for (const Payload& p : byzantine.payloads) EXPECT_EQ(p.ToBytes(), frame);
  for (const Payload& p : honest2.payloads) {
    EXPECT_EQ(p.ToBytes(), frame);
    EXPECT_TRUE(p.SharesBufferWith(byzantine.payloads[0]));
  }
}

}  // namespace
}  // namespace seemore
