// Tests for the vectorized expression programs (engine/vexpr): builder
// unit tests, a seeded randomized cross-check of the compiled kernel
// against the tree-walking interpreter (bit-identical values AND ops
// counters), and golden agreement of all 8 ADL queries across both plan
// shapes, both expression tiers, and thread counts.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "columnar/builder.h"
#include "core/physics.h"
#include "datagen/dataset.h"
#include "datagen/generator.h"
#include "engine/event_query.h"
#include "engine/vexpr.h"
#include "engine/vexpr_fuse.h"
#include "queries/adl.h"
#include "queries/builders.h"

namespace hepq::engine {
namespace {

uint64_t Bits(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

// ---------------------------------------------------------------------------
// VProgramBuilder
// ---------------------------------------------------------------------------

TEST(VProgramBuilderTest, FoldsConstantSubtrees) {
  VProgramBuilder b;
  const int r = b.Op(VOp::kAdd, {b.Const(2.0), b.Const(3.0)});
  double v = 0.0;
  ASSERT_TRUE(b.IsConst(r, &v));
  EXPECT_EQ(v, 5.0);
  // Only the materialized result constant reaches the instruction stream.
  EXPECT_EQ(b.Finish({r}).num_instrs(), 1);
}

TEST(VProgramBuilderTest, FoldingMatchesInterpreterHelpers) {
  VProgramBuilder b;
  double v = 0.0;
  ASSERT_TRUE(b.IsConst(b.Op(VOp::kDeltaPhi, {b.Const(0.5), b.Const(0.2)}),
                        &v));
  EXPECT_EQ(Bits(v), Bits(DeltaPhi(0.5, 0.2)));
  ASSERT_TRUE(b.IsConst(b.Op(VOp::kSqrt, {b.Const(2.0)}), &v));
  EXPECT_EQ(Bits(v), Bits(std::sqrt(2.0)));
  // A decomposed kinematic call folds component by component to the
  // helper's exact bits.
  const PtEtaPhiM j1{41.5, 0.7, -2.1, 4.2}, j2{33.0, -1.3, 0.4, 7.9},
      j3{25.25, 2.2, 3.0, 1.1};
  std::vector<int> args;
  for (const PtEtaPhiM& j : {j1, j2, j3}) {
    for (const double x : {j.pt, j.eta, j.phi, j.mass}) {
      args.push_back(b.Const(x));
    }
  }
  ASSERT_TRUE(b.IsConst(b.Call(Fn::kInvMass3, args), &v));
  EXPECT_EQ(Bits(v), Bits(InvariantMass3(j1, j2, j3)));
  ASSERT_TRUE(b.IsConst(b.Call(Fn::kSumPt3, args), &v));
  EXPECT_EQ(Bits(v), Bits(AddPtEtaPhiM3(j1, j2, j3).pt));
}

TEST(VProgramBuilderTest, KinematicCallsShareComponentOps) {
  // InvMass3 and SumPt3 over the same 12 registers in one program: CSE
  // converts each particle once, so the program holds exactly 12 component
  // instructions (px, py, pz, E per particle) and two results.
  VProgramBuilder b;
  std::vector<int> args;
  for (int s = 0; s < 12; ++s) args.push_back(b.Load(s));
  const int mass = b.Call(Fn::kInvMass3, args);
  const int pt = b.Call(Fn::kSumPt3, args);
  const VProgram p = b.Finish({mass, pt});
  int components = 0;
  for (const VInstr& in : p.code()) {
    if (in.op == VOp::kPx || in.op == VOp::kPy || in.op == VOp::kPz ||
        in.op == VOp::kE) {
      ++components;
    }
  }
  SCOPED_TRACE(p.ToString());
  EXPECT_EQ(components, 12);
  EXPECT_EQ(p.num_results(), 2);
  EXPECT_NE(p.ToString().find("ret r"), std::string::npos);
  // SumPt3 alone never computes pz or E.
  VProgramBuilder alone;
  std::vector<int> loads;
  for (int s = 0; s < 12; ++s) loads.push_back(alone.Load(s));
  const VProgram q = alone.Finish({alone.Call(Fn::kSumPt3, loads)});
  for (const VInstr& in : q.code()) {
    EXPECT_NE(in.op, VOp::kPz);
    EXPECT_NE(in.op, VOp::kE);
  }
}

TEST(VProgramBuilderTest, MultiResultProgramWritesEveryOutput) {
  // Three results, one of them a bare load and one shared with another's
  // subtree: each output gets its own values.
  VProgramBuilder b;
  const int x = b.Load(0);
  const int sq = b.Op(VOp::kMul, {x, x});
  const int plus = b.Op(VOp::kAdd, {sq, b.Const(1.0)});
  const VProgram p = b.Finish({plus, x, sq});
  ASSERT_EQ(p.num_results(), 3);
  std::vector<double> in(130);
  for (size_t i = 0; i < in.size(); ++i) in[i] = 0.5 * static_cast<double>(i);
  VColumn col;
  col.data = in.data();
  std::vector<double> o0(in.size()), o1(in.size()), o2(in.size());
  double* outs[] = {o0.data(), o1.data(), o2.data()};
  VScratch scratch;
  p.Run(&col, static_cast<int>(in.size()), &scratch, outs);
  for (size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(o0[i], in[i] * in[i] + 1.0);
    EXPECT_EQ(o1[i], in[i]);
    EXPECT_EQ(o2[i], in[i] * in[i]);
  }
}

TEST(VProgramBuilderTest, CseMergesIdenticalSubcomputations) {
  VProgramBuilder b;
  const int a = b.Op(VOp::kMul, {b.Load(0), b.Load(0)});
  const int c = b.Op(VOp::kMul, {b.Load(0), b.Load(0)});
  EXPECT_EQ(a, c);
  // load, mul, add — the repeated mul and loads were merged.
  EXPECT_EQ(b.Finish({b.Op(VOp::kAdd, {a, c})}).num_instrs(), 3);
}

TEST(VProgramBuilderTest, ToStringDisassembles) {
  VProgramBuilder b;
  const std::string text =
      b.Finish({b.Op(VOp::kGt, {b.Load(1), b.Const(40.0)})}).ToString();
  EXPECT_NE(text.find("load slot1"), std::string::npos);
  EXPECT_NE(text.find("const 40"), std::string::npos);
  EXPECT_NE(text.find("gt"), std::string::npos);
  EXPECT_NE(text.find("ret"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Fusion pass (engine/vexpr_fuse): peephole rewrites, checked on the
// micro-op disassembly of small hand-built programs.
// ---------------------------------------------------------------------------

TEST(FusionPassTest, ImmediateAndCompareMaskFusion) {
  // (x > 40) && (y < 2.5): the comparisons take their constants as
  // immediates, the And absorbs its single-use rhs comparison, and the
  // splats die — 7 source ops fuse into 4 micro-ops.
  VProgramBuilder b;
  const int cut = b.Op(
      VOp::kAnd, {b.Op(VOp::kGt, {b.Load(0), b.Const(40.0)}),
                  b.Op(VOp::kLt, {b.Load(1), b.Const(2.5)})});
  const VProgram p = b.Finish({cut});
  ASSERT_NE(p.fused(), nullptr);
  const std::string text = p.fused()->ToString();
  SCOPED_TRACE(text);
  EXPECT_NE(text.find("gt_imm"), std::string::npos);
  EXPECT_NE(text.find("and_lt_imm"), std::string::npos);
  EXPECT_EQ(text.find("splat"), std::string::npos);  // dead splats removed
  EXPECT_EQ(p.fused()->num_micro_ops(), 4);
  EXPECT_EQ(p.fused()->num_source_ops(), 7);
}

TEST(FusionPassTest, NanImmediatesAreNeverFolded) {
  // A NaN comparand must stay a splat + reg-reg op: folding it into an
  // immediate form could change which NaN payload an arithmetic op
  // propagates. (The builder's constant folder doesn't touch Load ops,
  // so the NaN reaches the fusion pass.)
  VProgramBuilder b;
  const int r = b.Op(
      VOp::kAdd, {b.Load(0), b.Const(std::numeric_limits<double>::quiet_NaN())});
  const VProgram p = b.Finish({r});
  ASSERT_NE(p.fused(), nullptr);
  const std::string text = p.fused()->ToString();
  SCOPED_TRACE(text);
  EXPECT_NE(text.find("splat"), std::string::npos);
  EXPECT_EQ(text.find("add_imm"), std::string::npos);
}

TEST(FusionPassTest, GatherAbsorbsSingleUseLoadsOfCartesianKernels) {
  // Every operand of the mass kernel is a single-use load, so the loads
  // are absorbed: one micro-op reading eight slots directly.
  VProgramBuilder b;
  std::vector<int> args;
  for (int s = 0; s < 8; ++s) args.push_back(b.Load(s));
  const VProgram p = b.Finish({b.Op(VOp::kMassOfSum2, args)});
  ASSERT_NE(p.fused(), nullptr);
  const std::string text = p.fused()->ToString();
  SCOPED_TRACE(text);
  EXPECT_NE(text.find("mass_of_sum2_g slot0"), std::string::npos);
  EXPECT_NE(text.find("slot7"), std::string::npos);
  EXPECT_EQ(text.find("load"), std::string::npos);
  EXPECT_EQ(p.fused()->num_micro_ops(), 1);
  EXPECT_EQ(p.fused()->num_source_ops(), 9);
}

TEST(FusionPassTest, GatherAbsorptionRejectsSharedLoads) {
  // CSE merges the duplicated Load(0), so that operand has two consumers
  // and absorption must leave the whole kernel in staged form.
  VProgramBuilder b;
  std::vector<int> args;
  for (int s = 0; s < 8; ++s) args.push_back(b.Load(s % 4));
  const VProgram p = b.Finish({b.Op(VOp::kMassOfSum2, args)});
  ASSERT_NE(p.fused(), nullptr);
  const std::string text = p.fused()->ToString();
  SCOPED_TRACE(text);
  EXPECT_NE(text.find("load"), std::string::npos);
  EXPECT_EQ(text.find("mass_of_sum2_g"), std::string::npos);
  EXPECT_NE(text.find("mass_of_sum2"), std::string::npos);
}

TEST(PhysicsTest, DeltaPhiIsTotalOnNonFiniteInput) {
  // max() over an empty list yields -inf; feeding that into delta_phi used
  // to spin forever in the wrapping loop (found by the randomized trees).
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(std::isnan(DeltaPhi(-inf, 0.3)));
  EXPECT_TRUE(std::isnan(DeltaPhi(0.3, inf)));
  EXPECT_TRUE(std::isnan(DeltaPhi(inf, inf)));
  EXPECT_TRUE(std::isnan(DeltaPhi(std::nan(""), 0.0)));
}

double BitsToDouble(uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

TEST(VProgramTest, ComponentOpsMatchPhysicsHelpersBitForBit) {
  // One program over three (pt, eta, phi, mass) particles returning the
  // twelve components, InvMass3, SumPt3 and InvMass2 of the first two:
  // every output must equal ToPxPyPzE / InvariantMass3 /
  // AddPtEtaPhiM3(...).pt / InvariantMass2 bit for bit, on lanes built to
  // hit the bitwise repeat reuse of kPx/kPy/kPz: runs of identical
  // particles (also across the 64-lane strip boundary), neighbours that
  // differ only by -0.0 vs +0.0 in pt, eta or phi, NaNs with distinct
  // payloads, +-inf, denormals and |eta| > 700 where sinh overflows.
  VProgramBuilder b;
  std::vector<int> args;
  for (int s = 0; s < 12; ++s) args.push_back(b.Load(s));
  std::vector<int> results;
  for (size_t g = 0; g < 3; ++g) {
    const int pt = args[4 * g], eta = args[4 * g + 1], phi = args[4 * g + 2];
    const int px = b.Op(VOp::kPx, {pt, phi});
    const int py = b.Op(VOp::kPy, {pt, phi});
    const int pz = b.Op(VOp::kPz, {pt, eta});
    const int e = b.Op(VOp::kE, {px, py, pz, args[4 * g + 3]});
    results.insert(results.end(), {px, py, pz, e});
  }
  results.push_back(b.Call(Fn::kInvMass3, args));
  results.push_back(b.Call(Fn::kSumPt3, args));
  results.push_back(b.Call(
      Fn::kInvMass2, std::vector<int>(args.begin(), args.begin() + 8)));
  const VProgram p = b.Finish(results);
  ASSERT_EQ(p.num_results(), 15);

  const double inf = std::numeric_limits<double>::infinity();
  const double specials[] = {std::numeric_limits<double>::quiet_NaN(),
                             inf,
                             -inf,
                             4.9e-324,
                             -2.2e-310,
                             710.0,
                             -800.0,
                             M_PI,
                             -M_PI,
                             0.0,
                             -0.0};
  constexpr int kSpecials = sizeof(specials) / sizeof(specials[0]);
  std::mt19937 rng(20120601);
  std::uniform_real_distribution<double> pt(0.0, 200.0);
  std::uniform_real_distribution<double> eta(-5.0, 5.0);
  std::uniform_real_distribution<double> phi(-M_PI, M_PI);
  std::uniform_real_distribution<double> mass(0.0, 30.0);
  std::uniform_int_distribution<int> pick(0, 99);
  // A fresh field is a NaN one time in four. NaN field c of particle g
  // on lane i takes payload (i + 4g + c) % 5, so the four fields of a
  // particle, the three particles of a lane and neighbouring lanes all
  // differ in payload, and two different NaNs often meet inside one
  // conversion: the result must keep the one ToPxPyPzE keeps. The last
  // two payloads are signalling NaNs.
  const double payloads[5] = {BitsToDouble(0x7ff8000000000001ULL),
                              BitsToDouble(0x7ff80000deadbeefULL),
                              BitsToDouble(0xfff8000000000abcULL),
                              BitsToDouble(0x7ff4000000000077ULL),
                              BitsToDouble(0xfff0000000c0ffeeULL)};
  const auto fresh = [&](int i, int g, int c) {
    double v;
    switch (c) {
      case 0: v = pt(rng); break;
      case 1: v = eta(rng); break;
      case 2: v = phi(rng); break;
      default: v = mass(rng); break;
    }
    const int roll = pick(rng);
    if (roll < 25) return payloads[(i + 4 * g + c) % 5];
    return roll < 40 ? specials[pick(rng) % kSpecials] : v;
  };
  for (const int width : {1, 63, 64, 65, 200}) {
    SCOPED_TRACE("width " + std::to_string(width));
    // columns[k] is slot k: (pt, eta, phi, mass) of particles 1, 2, 3.
    std::vector<std::vector<double>> columns(12,
                                             std::vector<double>(width));
    for (int i = 0; i < width; ++i) {
      for (int g = 0; g < 3; ++g) {
        double* q[4];
        for (int c = 0; c < 4; ++c) {
          q[c] = &columns[static_cast<size_t>(4 * g + c)]
                         [static_cast<size_t>(i)];
        }
        const int roll = pick(rng);
        // Lanes 60..70 repeat lane 59, across the strip boundary at 64.
        if (i > 0 && (roll < 45 || (i >= 60 && i <= 70))) {
          for (int c = 0; c < 4; ++c) *q[c] = q[c][-1];
        } else if (i > 0 && roll < 75) {
          // The previous particle with one of pt, eta, phi (c = 0, 1, 2)
          // set to +0.0, or flipped to the other zero if it already is
          // one — so neighbours equal under == but not bitwise occur.
          for (int c = 0; c < 4; ++c) *q[c] = q[c][-1];
          const int c = (roll - 45) % 3;
          *q[c] = q[c][-1] == 0.0 && !std::signbit(q[c][-1]) ? -0.0 : 0.0;
        } else {
          for (int c = 0; c < 4; ++c) *q[c] = fresh(i, g, c);
        }
      }
    }
    std::vector<VColumn> cols(12);
    for (size_t k = 0; k < cols.size(); ++k) {
      cols[k].type = TypeId::kFloat64;
      cols[k].data = columns[k].data();
    }
    VScratch scratch;
    std::vector<std::vector<double>> out(
        results.size(), std::vector<double>(static_cast<size_t>(width)));
    std::vector<double*> outs;
    for (auto& o : out) outs.push_back(o.data());
    p.Run(cols.data(), width, &scratch, outs.data());
    for (int i = 0; i < width; ++i) {
      const auto at = [&](int k) {
        return columns[static_cast<size_t>(k)][static_cast<size_t>(i)];
      };
      const PtEtaPhiM j[3] = {{at(0), at(1), at(2), at(3)},
                              {at(4), at(5), at(6), at(7)},
                              {at(8), at(9), at(10), at(11)}};
      std::vector<double> want;
      for (const PtEtaPhiM& particle : j) {
        const PxPyPzE v = particle.ToPxPyPzE();
        want.insert(want.end(), {v.px, v.py, v.pz, v.e});
      }
      want.push_back(InvariantMass3(j[0], j[1], j[2]));
      want.push_back(AddPtEtaPhiM3(j[0], j[1], j[2]).pt);
      want.push_back(InvariantMass2(j[0], j[1]));
      for (size_t r = 0; r < want.size(); ++r) {
        EXPECT_EQ(Bits(out[r][static_cast<size_t>(i)]), Bits(want[r]))
            << "lane " << i << " result " << r << ": "
            << out[r][static_cast<size_t>(i)] << " vs " << want[r];
      }
    }
  }
}

TEST(VProgramTest, RepeatReuseDistinguishesSignedZeros) {
  // Lane pairs equal under == but not bitwise: the second lane must get
  // its own px/py/pz, not the first lane's (-0.0 * cos(phi) is -0.0).
  VProgramBuilder b;
  const int pt = b.Load(0), eta = b.Load(1), phi = b.Load(2);
  const VProgram p = b.Finish({b.Op(VOp::kPx, {pt, phi}),
                               b.Op(VOp::kPy, {pt, phi}),
                               b.Op(VOp::kPz, {pt, eta})});
  const std::vector<double> pts = {0.0, -0.0, 5.0, 5.0, 5.0, 5.0};
  const std::vector<double> etas = {1.0, 1.0, 0.0, -0.0, 0.5, 0.5};
  const std::vector<double> phis = {0.3, 0.3, 0.2, 0.2, 0.0, -0.0};
  VColumn cols[3];
  cols[0].data = pts.data();
  cols[1].data = etas.data();
  cols[2].data = phis.data();
  std::vector<double> px(6), py(6), pz(6);
  double* outs[] = {px.data(), py.data(), pz.data()};
  VScratch scratch;
  p.Run(cols, 6, &scratch, outs);
  for (size_t i = 0; i < 6; ++i) {
    const PxPyPzE want = PtEtaPhiM{pts[i], etas[i], phis[i], 1.0}.ToPxPyPzE();
    EXPECT_EQ(Bits(px[i]), Bits(want.px)) << "lane " << i;
    EXPECT_EQ(Bits(py[i]), Bits(want.py)) << "lane " << i;
    EXPECT_EQ(Bits(pz[i]), Bits(want.pz)) << "lane " << i;
  }
  EXPECT_TRUE(std::signbit(px[1]));
  EXPECT_TRUE(std::signbit(pz[3]));
  EXPECT_TRUE(std::signbit(py[5]));
}

TEST(VProgramTest, RunsGathersAndSplats) {
  VProgramBuilder b;
  const int r = b.Op(VOp::kAdd, {b.Load(0), b.Const(1.5)});
  const VProgram p = b.Finish({r});
  const float data[4] = {1.0f, 2.0f, 3.0f, 4.0f};
  const uint32_t idx[3] = {3, 0, 2};
  VColumn col;
  col.type = TypeId::kFloat32;
  col.data = data;
  col.index = idx;
  VScratch scratch;
  double out[3] = {0, 0, 0};
  p.Run(&col, 3, &scratch, out);
  EXPECT_EQ(out[0], 5.5);
  EXPECT_EQ(out[1], 2.5);
  EXPECT_EQ(out[2], 4.5);
}

// ---------------------------------------------------------------------------
// Randomized compiled-vs-interpreted cross-check
// ---------------------------------------------------------------------------

/// Random event batch: Jet list with (pt, eta, phi, mass, charge) members
/// of mixed physical types plus MET.pt / MET.phi scalars.
RecordBatchPtr RandomBatch(std::mt19937* rng, int num_events) {
  std::uniform_int_distribution<int> njets(0, 6);
  std::uniform_real_distribution<float> pt(15.0f, 120.0f);
  std::uniform_real_distribution<float> eta(-2.5f, 2.5f);
  std::uniform_real_distribution<float> phi(-3.14f, 3.14f);
  std::uniform_real_distribution<float> mass(0.0f, 25.0f);
  std::bernoulli_distribution minus(0.5);

  std::vector<uint32_t> offsets{0};
  std::vector<float> jpt, jeta, jphi, jmass;
  std::vector<int32_t> jcharge;
  std::vector<float> met_pt, met_phi;
  for (int e = 0; e < num_events; ++e) {
    // Guarantee one non-empty event so top-level member reads of element 0
    // are in range, like the interpreter's default iterator binding.
    const int n = e == 0 ? 3 : njets(*rng);
    for (int j = 0; j < n; ++j) {
      jpt.push_back(pt(*rng));
      jeta.push_back(eta(*rng));
      jphi.push_back(phi(*rng));
      jmass.push_back(mass(*rng));
      jcharge.push_back(minus(*rng) ? -1 : 1);
    }
    offsets.push_back(static_cast<uint32_t>(jpt.size()));
    met_pt.push_back(pt(*rng));
    met_phi.push_back(phi(*rng));
  }

  const std::vector<Field> jet_fields{{"pt", DataType::Float32()},
                                      {"eta", DataType::Float32()},
                                      {"phi", DataType::Float32()},
                                      {"mass", DataType::Float32()},
                                      {"charge", DataType::Int32()}};
  auto schema = std::make_shared<Schema>(std::vector<Field>{
      {"MET", DataType::Struct({{"pt", DataType::Float32()},
                                {"phi", DataType::Float32()}})},
      {"Jet", DataType::List(DataType::Struct(jet_fields))},
  });
  auto met = StructArray::Make({{"pt", DataType::Float32()},
                                {"phi", DataType::Float32()}},
                               {MakeFloat32Array(std::move(met_pt)),
                                MakeFloat32Array(std::move(met_phi))})
                 .ValueOrDie();
  auto jets = MakeListOfStructArray(jet_fields, std::move(offsets),
                                    {MakeFloat32Array(std::move(jpt)),
                                     MakeFloat32Array(std::move(jeta)),
                                     MakeFloat32Array(std::move(jphi)),
                                     MakeFloat32Array(std::move(jmass)),
                                     MakeInt32Array(std::move(jcharge))})
                  .ValueOrDie();
  return RecordBatch::Make(schema, {met, jets}).ValueOrDie();
}

/// Seeded random expression trees over the RandomBatch declarations:
/// list slot 0 = Jet (members pt, eta, phi, mass, charge), scalar slots
/// 0/1 = MET.pt / MET.phi. `in_iter` marks positions where iterator 1 is
/// bound (aggregate bodies), enabling per-element member reads and the
/// kinematic calls that exercise the decomposed Cartesian path.
class RandomExprGen {
 public:
  explicit RandomExprGen(uint64_t seed) : rng_(seed) {}

  ExprPtr Gen(int depth, bool in_iter) {
    if (depth <= 0) return Leaf(in_iter);
    switch (Pick(in_iter ? 9 : 10)) {
      case 0:
        return Bin(static_cast<BinOp>(Pick(4)),  // + - * /
                   Gen(depth - 1, in_iter), Gen(depth - 1, in_iter));
      case 1:
        return Bin(static_cast<BinOp>(4 + Pick(6)),  // < <= > >= == !=
                   Gen(depth - 1, in_iter), Gen(depth - 1, in_iter));
      case 2: {
        const ExprPtr l = Gen(depth - 1, in_iter);
        const ExprPtr r = Gen(depth - 1, in_iter);
        return Pick(2) == 0 ? And(l, r) : Or(l, r);
      }
      case 3:
        return Abs(Gen(depth - 1, in_iter));
      case 4:
        return Call(Fn::kSqrt, {Abs(Gen(depth - 1, in_iter))});
      case 5:
        return Not(Gen(depth - 1, in_iter));
      case 6:
        return Call(Fn::kMin2,
                    {Gen(depth - 1, in_iter), Gen(depth - 1, in_iter)});
      case 7:
        return Call(Fn::kDeltaPhi,
                    {Gen(depth - 1, in_iter), Gen(depth - 1, in_iter)});
      case 8:
        return in_iter ? Kinematic() : Leaf(false);
      default:
        return Agg(depth);
    }
  }

 private:
  std::mt19937 rng_;

  int Pick(int n) {
    return std::uniform_int_distribution<int>(0, n - 1)(rng_);
  }

  ExprPtr Leaf(bool in_iter) {
    switch (Pick(in_iter ? 5 : 3)) {
      case 0:
        return Lit(static_cast<double>(Pick(41) - 20) * 0.5);
      case 1:
        return ScalarRef(Pick(2));
      case 2:
        return ListSize(0);
      case 3:
        return IterMember(0, 1, Pick(5));
      default:
        return IterOrdinal(0, 1);
    }
  }

  /// InvMass2 / InvMass3 / SumPt3 over (pt, eta, phi, mass) member quads —
  /// the decomposed Cartesian fast path. One variant swaps a quad member
  /// for a literal so the generic per-lane opcode fallback stays covered.
  ExprPtr Kinematic() {
    const auto quad = [&]() -> std::vector<ExprPtr> {
      return {IterMember(0, 1, 0), IterMember(0, 1, 1), IterMember(0, 1, 2),
              IterMember(0, 1, 3)};
    };
    std::vector<ExprPtr> args = quad();
    std::vector<ExprPtr> b = quad();
    args.insert(args.end(), b.begin(), b.end());
    switch (Pick(4)) {
      case 0:
        return Call(Fn::kInvMass2, std::move(args));
      case 1: {
        args[5] = Lit(1.0);  // not a pure member quad: generic opcode
        return Call(Fn::kInvMass2, std::move(args));
      }
      default: {
        std::vector<ExprPtr> c = quad();
        args.insert(args.end(), c.begin(), c.end());
        return Call(Pick(2) == 0 ? Fn::kInvMass3 : Fn::kSumPt3,
                    std::move(args));
      }
    }
  }

  ExprPtr Agg(int depth) {
    const AggKind kind = static_cast<AggKind>(Pick(5));
    const ExprPtr filter =
        Pick(2) == 0 ? Gen(depth - 1, /*in_iter=*/true) : nullptr;
    const bool needs_value = kind == AggKind::kSum || kind == AggKind::kMin ||
                             kind == AggKind::kMax;
    const ExprPtr value = needs_value || Pick(2) == 0
                              ? Gen(depth - 1, /*in_iter=*/true)
                              : nullptr;
    return AggOverList(kind, 0, 1, filter, value);
  }
};

TEST(CompiledKernelTest, RandomTreesMatchInterpreterBitForBit) {
  std::mt19937 data_rng(20120601);
  const RecordBatchPtr batch = RandomBatch(&data_rng, 64);
  const BatchBindings bindings =
      BatchBindings::Bind(*batch,
                          {{"Jet", {"pt", "eta", "phi", "mass", "charge"}, {}}},
                          {{"MET.pt"}, {"MET.phi"}})
          .ValueOrDie();
  const int64_t rows = batch->num_rows();

  VexprScratch scratch;
  std::vector<double> compiled(static_cast<size_t>(rows));
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    RandomExprGen gen(seed);
    const ExprPtr tree = gen.Gen(/*depth=*/4, /*in_iter=*/false);
    SCOPED_TRACE("seed " + std::to_string(seed) + ": " + tree->ToString());

    auto kernel = CompiledExprKernel::Compile(tree);
    ASSERT_TRUE(kernel.ok()) << kernel.status().ToString();

    uint64_t interp_ops = 0;
    std::vector<double> expected(static_cast<size_t>(rows));
    for (int64_t row = 0; row < rows; ++row) {
      EvalContext ctx;
      ctx.bindings = &bindings;
      ctx.row = static_cast<uint32_t>(row);
      expected[static_cast<size_t>(row)] = tree->Eval(&ctx);
      interp_ops += ctx.ops;
    }

    uint64_t compiled_ops = 0;
    ASSERT_TRUE(
        kernel->Eval(bindings, rows, &scratch, compiled.data(), &compiled_ops)
            .ok());
    for (int64_t row = 0; row < rows; ++row) {
      EXPECT_EQ(Bits(compiled[static_cast<size_t>(row)]),
                Bits(expected[static_cast<size_t>(row)]))
          << "row " << row;
    }
    EXPECT_EQ(compiled_ops, interp_ops);
  }
}

TEST(CompiledKernelTest, CombinationInValuePositionKeepsBindingSemantics) {
  // The interpreter leaves a search's winners bound for sibling subtrees;
  // the kernel must reproduce that (it falls back to a whole-tree walk).
  std::mt19937 data_rng(7);
  const RecordBatchPtr batch = RandomBatch(&data_rng, 32);
  const BatchBindings bindings =
      BatchBindings::Bind(*batch,
                          {{"Jet", {"pt", "eta", "phi", "mass", "charge"}, {}}},
                          {{"MET.pt"}, {"MET.phi"}})
          .ValueOrDie();
  const int64_t rows = batch->num_rows();
  // Highest-pt-sum pair, then read the winning pair's leading jet pt.
  const ExprPtr tree =
      Mul(BestCombination({{0, 0}, {0, 1}}, nullptr,
                          Sub(Lit(0.0), Add(IterMember(0, 0, 0),
                                            IterMember(0, 1, 0)))),
          IterMember(0, 0, 0));
  auto kernel = CompiledExprKernel::Compile(tree);
  ASSERT_TRUE(kernel.ok());
  VexprScratch scratch;
  std::vector<double> compiled(static_cast<size_t>(rows));
  uint64_t compiled_ops = 0;
  ASSERT_TRUE(
      kernel->Eval(bindings, rows, &scratch, compiled.data(), &compiled_ops)
          .ok());
  uint64_t interp_ops = 0;
  for (int64_t row = 0; row < rows; ++row) {
    EvalContext ctx;
    ctx.bindings = &bindings;
    ctx.row = static_cast<uint32_t>(row);
    const double expected = tree->Eval(&ctx);
    interp_ops += ctx.ops;
    EXPECT_EQ(Bits(compiled[static_cast<size_t>(row)]), Bits(expected));
  }
  EXPECT_EQ(compiled_ops, interp_ops);
}

/// Hand-placed adversarial values: NaN and ±inf scalars, NaN jet members,
/// an empty jet list (aggregate identities ±inf flow out of it), and
/// signed zeros. Same declarations as RandomBatch.
RecordBatchPtr AdversarialBatch() {
  const float finf = std::numeric_limits<float>::infinity();
  const float fnan = std::numeric_limits<float>::quiet_NaN();
  std::vector<float> met_pt{fnan, finf, -finf, 30.0f, 0.0f, -0.0f, 20.0f,
                            50.0f};
  std::vector<float> met_phi{0.3f, -finf, fnan, finf, 3.1f, -3.1f, fnan,
                             -0.0f};
  const int num_events = static_cast<int>(met_pt.size());
  std::vector<uint32_t> offsets{0};
  std::vector<float> jpt, jeta, jphi, jmass;
  std::vector<int32_t> jcharge;
  for (int e = 0; e < num_events; ++e) {
    const int n = e == 0 ? 3 : (e == 1 ? 0 : 2);  // event 1 is empty
    for (int j = 0; j < n; ++j) {
      const bool poison = e >= 4 && j == 0;
      jpt.push_back(poison ? fnan : 30.0f + static_cast<float>(e + j));
      jeta.push_back(poison ? finf : 0.1f * static_cast<float>(j - 1));
      jphi.push_back(poison ? -finf : 0.5f * static_cast<float>(e - 3));
      jmass.push_back(poison ? fnan : 5.0f);
      jcharge.push_back(j % 2 == 0 ? 1 : -1);
    }
    offsets.push_back(static_cast<uint32_t>(jpt.size()));
  }
  const std::vector<Field> jet_fields{{"pt", DataType::Float32()},
                                      {"eta", DataType::Float32()},
                                      {"phi", DataType::Float32()},
                                      {"mass", DataType::Float32()},
                                      {"charge", DataType::Int32()}};
  auto schema = std::make_shared<Schema>(std::vector<Field>{
      {"MET", DataType::Struct({{"pt", DataType::Float32()},
                                {"phi", DataType::Float32()}})},
      {"Jet", DataType::List(DataType::Struct(jet_fields))},
  });
  auto met = StructArray::Make({{"pt", DataType::Float32()},
                                {"phi", DataType::Float32()}},
                               {MakeFloat32Array(std::move(met_pt)),
                                MakeFloat32Array(std::move(met_phi))})
                 .ValueOrDie();
  auto jets = MakeListOfStructArray(jet_fields, std::move(offsets),
                                    {MakeFloat32Array(std::move(jpt)),
                                     MakeFloat32Array(std::move(jeta)),
                                     MakeFloat32Array(std::move(jphi)),
                                     MakeFloat32Array(std::move(jmass)),
                                     MakeInt32Array(std::move(jcharge))})
                  .ValueOrDie();
  return RecordBatch::Make(schema, {met, jets}).ValueOrDie();
}

TEST(CompiledKernelTest, AdversarialNanInfAgreeAcrossAllTiers) {
  // Regression companion to the float-ordering audit: NaN payloads,
  // non-finite aggregate identities, NaN-asymmetric min/max operand
  // orders, and always-false NaN comparisons must come out bit-identical
  // from the interpreter and the fused kernels.
  const RecordBatchPtr batch = AdversarialBatch();
  const BatchBindings bindings =
      BatchBindings::Bind(*batch,
                          {{"Jet", {"pt", "eta", "phi", "mass", "charge"}, {}}},
                          {{"MET.pt"}, {"MET.phi"}})
          .ValueOrDie();
  const int64_t rows = batch->num_rows();

  const auto quad = [](int iter) -> std::vector<ExprPtr> {
    return {IterMember(0, iter, 0), IterMember(0, iter, 1),
            IterMember(0, iter, 2), IterMember(0, iter, 3)};
  };
  std::vector<ExprPtr> mass_args = quad(1);
  {
    std::vector<ExprPtr> b = quad(1);
    mass_args.insert(mass_args.end(), b.begin(), b.end());
  }
  std::vector<ExprPtr> trees;
  trees.push_back(Call(Fn::kDeltaPhi, {ScalarRef(1), Lit(0.3)}));
  // max over an empty list is -inf; delta_phi must stay total on it.
  trees.push_back(Call(
      Fn::kDeltaPhi,
      {AggOverList(AggKind::kMax, 0, 1, nullptr, IterMember(0, 1, 2)),
       ScalarRef(1)}));
  // std::min/std::max are operand-order-asymmetric under NaN: both orders.
  trees.push_back(Call(Fn::kMin2, {ScalarRef(0), ScalarRef(1)}));
  trees.push_back(Call(Fn::kMin2, {ScalarRef(1), ScalarRef(0)}));
  trees.push_back(Call(Fn::kMax2, {ScalarRef(0), ScalarRef(1)}));
  // NaN comparisons are false on every tier, also through the fused
  // compare+mask and immediate forms.
  trees.push_back(And(Gt(ScalarRef(0), Lit(25.0)),
                      Lt(Abs(Call(Fn::kDeltaPhi, {ScalarRef(1), Lit(0.4)})),
                         Lit(1.5))));
  trees.push_back(Not(Ge(ScalarRef(0), ScalarRef(0))));
  // NaN members through the SoA mass kernel (m2 clamp sees NaN).
  trees.push_back(
      AggOverList(AggKind::kSum, 0, 1, nullptr,
                  Call(Fn::kInvMass2, std::move(mass_args))));
  // Float-ordering audit witness: a left-to-right sum over NaN/inf jets.
  trees.push_back(AggOverList(AggKind::kSum, 0, 1, nullptr,
                              IterMember(0, 1, 0)));

  VexprScratch scratch;
  std::vector<double> compiled(static_cast<size_t>(rows));
  for (const ExprPtr& tree : trees) {
    SCOPED_TRACE(tree->ToString());
    auto kernel = CompiledExprKernel::Compile(tree);
    ASSERT_TRUE(kernel.ok()) << kernel.status().ToString();
    uint64_t ops = 0;
    ASSERT_TRUE(
        kernel->Eval(bindings, rows, &scratch, compiled.data(), &ops).ok());
    for (int64_t row = 0; row < rows; ++row) {
      EvalContext ctx;
      ctx.bindings = &bindings;
      ctx.row = static_cast<uint32_t>(row);
      EXPECT_EQ(Bits(compiled[static_cast<size_t>(row)]),
                Bits(tree->Eval(&ctx)))
          << "row " << row;
    }
  }
}

TEST(CompiledKernelTest, GateMatchesEvalPlusCompactionAcrossDensities) {
  // The fused gate (evaluate + compact in one strip pass) must select
  // exactly the lanes an Eval + `!= 0.0` compaction selects, from
  // all-pass through sparse to empty selections.
  std::mt19937 data_rng(11);
  const RecordBatchPtr batch = RandomBatch(&data_rng, 96);
  const BatchBindings bindings =
      BatchBindings::Bind(*batch,
                          {{"Jet", {"pt", "eta", "phi", "mass", "charge"}, {}}},
                          {{"MET.pt"}, {"MET.phi"}})
          .ValueOrDie();
  const int64_t rows = batch->num_rows();
  for (const double threshold : {-1.0, 60.0, 1e9}) {
    const ExprPtr cut = Gt(ScalarRef(0), Lit(threshold));
    SCOPED_TRACE(cut->ToString());
    auto kernel = CompiledExprKernel::Compile(cut);
    ASSERT_TRUE(kernel.ok()) << kernel.status().ToString();
    VexprScratch scratch;
    std::vector<double> values(static_cast<size_t>(rows));
    std::vector<uint32_t> expect_sel, gate_sel(static_cast<size_t>(rows));
    uint64_t eval_ops = 0;
    ASSERT_TRUE(
        kernel->Eval(bindings, rows, &scratch, values.data(), &eval_ops).ok());
    for (int64_t row = 0; row < rows; ++row) {
      if (values[static_cast<size_t>(row)] != 0.0) {
        expect_sel.push_back(static_cast<uint32_t>(row));
      }
    }
    uint64_t gate_ops = 0;
    const auto count =
        kernel->Gate(bindings, rows, &scratch, gate_sel.data(), &gate_ops);
    ASSERT_TRUE(count.ok()) << count.status().ToString();
    ASSERT_EQ(static_cast<size_t>(*count), expect_sel.size());
    for (size_t i = 0; i < expect_sel.size(); ++i) {
      EXPECT_EQ(gate_sel[i], expect_sel[i]) << "position " << i;
    }
    EXPECT_EQ(gate_ops, eval_ops);
  }
}

TEST(CallArityTest, WrongArgumentCountsAreRejectedAtPreparation) {
  // 13 arguments used to overflow the evaluators' 12-slot argument
  // buffers, too few read uninitialized lanes: every preparation path
  // (the kernel compiler, and EventQuery on both tiers) must reject them
  // with Invalid before anything evaluates.
  const auto lits = [](size_t n) {
    return std::vector<ExprPtr>(n, Lit(1.5));
  };
  const std::vector<ExprPtr> bad = {
      Call(Fn::kInvMass3, lits(13)),
      Call(Fn::kSumPt3, lits(11)),
      Call(Fn::kDeltaR, {}),
      Abs(Call(Fn::kInvMass2, lits(7))),
      AggOverList(AggKind::kCount, 0, 1,
                  Gt(Call(Fn::kSqrt, lits(2)), Lit(0.0)), nullptr),
  };
  std::mt19937 data_rng(5);
  const RecordBatchPtr batch = RandomBatch(&data_rng, 8);
  for (const ExprPtr& e : bad) {
    SCOPED_TRACE(e->ToString());
    const auto kernel = CompiledExprKernel::Compile(e);
    ASSERT_FALSE(kernel.ok());
    EXPECT_EQ(kernel.status().code(), StatusCode::kInvalid);
    EXPECT_NE(kernel.status().ToString().find("arguments, got"),
              std::string::npos);
    for (const ExprTier tier : {ExprTier::kInterpret, ExprTier::kSimd}) {
      for (const bool as_stage : {true, false}) {
        EventQuery query("arity");
        query.DeclareList("Jet", {"pt", "eta", "phi", "mass", "charge"});
        query.DeclareScalar("MET.pt");
        if (as_stage) {
          query.AddStage(Ge(e, Lit(0.0)));
          query.AddHistogram({"x", "", 10, 0, 10}, Lit(1.0));
        } else {
          query.AddHistogram({"x", "", 10, 0, 10}, e);
        }
        query.set_expr_tier(tier);
        EventQueryResult result = query.MakeResult();
        EXPECT_EQ(query.ExecuteBatch(*batch, &result).code(),
                  StatusCode::kInvalid)
            << ExprTierName(tier) << (as_stage ? " stage" : " fill");
      }
    }
  }
}

TEST(BindingsTest, NonPrimitiveLeafRejectedAtBindWithTypeName) {
  std::mt19937 data_rng(3);
  const RecordBatchPtr batch = RandomBatch(&data_rng, 4);
  // "Jet" as a scalar leaf is a list column — rejected when the accessor
  // is built, never silently read as 0.0 at evaluation time.
  auto bound = BatchBindings::Bind(*batch, {}, {{"Jet"}});
  ASSERT_FALSE(bound.ok());
  EXPECT_NE(bound.status().ToString().find("primitive"), std::string::npos);
}

TEST(ExprTierTest, NamesRoundTripAndUnknownNamesAreRejected) {
  for (const ExprTier tier : {ExprTier::kInterpret, ExprTier::kSimd}) {
    ExprTier parsed = tier == ExprTier::kSimd ? ExprTier::kInterpret
                                              : ExprTier::kSimd;
    ASSERT_TRUE(ParseExprTier(ExprTierName(tier), &parsed));
    EXPECT_EQ(parsed, tier);
  }
  // A tier name that does not exist is an error, never a silent fallback
  // to some other tier (the flag parsers exit on it).
  ExprTier untouched = ExprTier::kInterpret;
  EXPECT_FALSE(ParseExprTier("bytecode", &untouched));
  EXPECT_FALSE(ParseExprTier("SIMD", &untouched));
  EXPECT_EQ(untouched, ExprTier::kInterpret);
  EXPECT_EQ(queries::RunOptions{}.expr_tier, ExprTier::kSimd);
}

// ---------------------------------------------------------------------------
// Golden agreement: 8 queries x both plan shapes x both execution tiers x
// {1, 3, 4} threads, all bit-identical (3 splits the row groups unevenly).
// ---------------------------------------------------------------------------

const std::string& GoldenDataset() {
  static const auto& path = *new std::string([] {
    DatasetSpec spec;
    spec.num_events = 4000;
    spec.row_group_size = 1000;
    return EnsureDataset(::testing::TempDir() + "/hepq_vexpr", spec)
        .ValueOrDie();
  }());
  return path;
}

void ExpectSameBits(const Histogram1D& a, const Histogram1D& b) {
  EXPECT_EQ(a.num_entries(), b.num_entries());
  EXPECT_EQ(a.sum_weights(), b.sum_weights());
  EXPECT_EQ(a.underflow(), b.underflow());
  EXPECT_EQ(a.overflow(), b.overflow());
  for (int i = 0; i < a.spec().num_bins; ++i) {
    EXPECT_EQ(a.BinContent(i), b.BinContent(i)) << "bin " << i;
  }
}

class CompiledInterpretedGolden : public ::testing::TestWithParam<int> {};

TEST_P(CompiledInterpretedGolden, BitIdenticalAcrossExecModeAndThreads) {
  const int q = GetParam();
  using queries::EngineKind;
  for (EngineKind engine :
       {EngineKind::kBigQueryShape, EngineKind::kPrestoShape}) {
    queries::RunOptions ref_options;
    ref_options.expr_tier = ExprTier::kInterpret;
    const auto reference =
        queries::RunAdlQuery(engine, q, GoldenDataset(), ref_options);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    for (const ExprTier tier : {ExprTier::kInterpret, ExprTier::kSimd}) {
      for (const int threads : {1, 3, 4}) {
        if (tier == ExprTier::kInterpret && threads == 1)
          continue;  // the reference run
        queries::RunOptions options;
        options.expr_tier = tier;
        options.num_threads = threads;
        const auto run =
            queries::RunAdlQuery(engine, q, GoldenDataset(), options);
        ASSERT_TRUE(run.ok()) << run.status().ToString();
        SCOPED_TRACE(std::string(queries::EngineKindName(engine)) + " " +
                     ExprTierName(tier) + " threads " +
                     std::to_string(threads));
        EXPECT_EQ(run->events_processed, reference->events_processed);
        EXPECT_EQ(run->ops, reference->ops);  // Table 2 counter fidelity
        ASSERT_EQ(run->histograms.size(), reference->histograms.size());
        for (size_t h = 0; h < run->histograms.size(); ++h) {
          ExpectSameBits(run->histograms[h], reference->histograms[h]);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllQueries, CompiledInterpretedGolden,
                         ::testing::Range(1, 9));

// ---------------------------------------------------------------------------
// Event windows: the compiled tier runs a batch in windows of 2048 events.
// Batches just below, at and above the window edges, and a window holding
// one 100-jet event, must match the interpreter bit for bit, counters too.
// ---------------------------------------------------------------------------

void ExpectSameRun(const EventQueryResult& got, const EventQueryResult& want) {
  EXPECT_EQ(got.events_processed, want.events_processed);
  EXPECT_EQ(got.events_selected, want.events_selected);
  EXPECT_EQ(got.ops, want.ops);
  ASSERT_EQ(got.histograms.size(), want.histograms.size());
  for (size_t h = 0; h < got.histograms.size(); ++h) {
    SCOPED_TRACE("histogram " + std::to_string(h));
    const HistogramParts g = got.histograms[h].ToParts();
    const HistogramParts w = want.histograms[h].ToParts();
    EXPECT_EQ(g.num_entries, w.num_entries);
    EXPECT_EQ(Bits(g.sum_w), Bits(w.sum_w));
    EXPECT_EQ(Bits(g.sum_wx), Bits(w.sum_wx));
    EXPECT_EQ(Bits(g.sum_wx2), Bits(w.sum_wx2));
    EXPECT_EQ(Bits(g.underflow), Bits(w.underflow));
    EXPECT_EQ(Bits(g.overflow), Bits(w.overflow));
    EXPECT_EQ(g.bins, w.bins);
  }
}

/// Runs `query` over `batch` on both tiers, checks they agree, and
/// returns the compiled run.
EventQueryResult RunBothTiers(EventQuery* query, const RecordBatch& batch) {
  query->set_expr_tier(ExprTier::kInterpret);
  EventQueryResult want = query->MakeResult();
  EXPECT_TRUE(query->ExecuteBatch(batch, &want).ok());
  query->set_expr_tier(ExprTier::kSimd);
  EventQueryResult got = query->MakeResult();
  EXPECT_TRUE(query->ExecuteBatch(batch, &got).ok());
  ExpectSameRun(got, want);
  return got;
}

TEST(EventWindowTest, BatchesAroundWindowEdgesMatchInterpreter) {
  for (const int64_t rows : {2047, 2048, 2049, 4097}) {
    EventGenerator generator;
    const RecordBatchPtr batch = generator.GenerateBatch(rows);
    ASSERT_EQ(batch->num_rows(), rows);
    for (int q = 1; q <= queries::kNumAdlQueries; ++q) {
      SCOPED_TRACE("rows " + std::to_string(rows) + " Q" + std::to_string(q));
      EventQuery query = queries::BuildAdlEventQuery(q).ValueOrDie();
      const EventQueryResult run = RunBothTiers(&query, *batch);
      EXPECT_EQ(run.events_processed, rows);
      EXPECT_GT(run.events_selected, 0);
    }
  }
}

TEST(EventWindowTest, HundredJetEventInsideAWindowMatchesInterpreter) {
  // 4097 events of 0-5 jets, except event 2100 (in the second window)
  // with 100: its C(100, 3) = 161700 trijets overflow the 16384-lane
  // combination chunk of Q6's BestCombination by themselves.
  constexpr int64_t kRows = 4097;
  constexpr int64_t kBusy = 2100;
  const std::vector<Field> fields = {{"pt", DataType::Float32()},
                                     {"eta", DataType::Float32()},
                                     {"phi", DataType::Float32()},
                                     {"mass", DataType::Float32()},
                                     {"btag", DataType::Float32()}};
  std::mt19937_64 rng(20120601);
  std::uniform_real_distribution<float> unit(0.0f, 1.0f);
  std::vector<uint32_t> offsets{0};
  std::vector<float> pt, eta, phi, mass, btag;
  for (int64_t e = 0; e < kRows; ++e) {
    const uint32_t jets = e == kBusy ? 100 : static_cast<uint32_t>(e % 6);
    for (uint32_t k = 0; k < jets; ++k) {
      pt.push_back(15.0f + 80.0f * unit(rng));
      eta.push_back(-2.5f + 5.0f * unit(rng));
      phi.push_back(-3.14f + 6.28f * unit(rng));
      mass.push_back(2.0f + 18.0f * unit(rng));
      btag.push_back(unit(rng));
    }
    offsets.push_back(offsets.back() + jets);
  }
  auto schema = std::make_shared<Schema>(std::vector<Field>{
      {"Jet", DataType::List(DataType::Struct(fields))}});
  auto jets = MakeListOfStructArray(
                  fields, offsets,
                  {MakeFloat32Array(std::move(pt)),
                   MakeFloat32Array(std::move(eta)),
                   MakeFloat32Array(std::move(phi)),
                   MakeFloat32Array(std::move(mass)),
                   MakeFloat32Array(std::move(btag))})
                  .ValueOrDie();
  const RecordBatchPtr batch = RecordBatch::Make(schema, {jets}).ValueOrDie();

  EventQuery query = queries::BuildAdlEventQuery(6).ValueOrDie();
  const EventQueryResult run = RunBothTiers(&query, *batch);
  EXPECT_EQ(run.events_processed, kRows);
  EXPECT_GT(run.ops, 161700u);
  EXPECT_EQ(run.histograms[0].num_entries(),
            static_cast<uint64_t>(run.events_selected));
}

}  // namespace
}  // namespace hepq::engine
