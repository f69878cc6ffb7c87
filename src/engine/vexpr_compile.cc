// Lowers Expr trees (via their Shape() reflection) into VPrograms plus a
// small set of batched drivers — aggregates, combination searches,
// stage predicates, histogram fills — that together replicate the
// tree-walking interpreter bit for bit, including its ops accounting
// (Table 2): +1 per event base access, +1 per aggregate element visited
// (kAny stops counting at its first match), +1 per combination enumerated.
//
// The lowering is total: any subtree the vectorizer cannot express
// (combination searches in value position, logical operators whose
// operands have side effects on the ops counter) degrades to a per-lane
// interpreter "producer" for exactly that subtree, so correctness never
// depends on the shape of the query.

#include <algorithm>
#include <array>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <utility>
#include <vector>

#include "core/physics.h"
#include "engine/vexpr.h"
#include "obs/trace.h"

namespace hepq::engine {

namespace {

/// Events never split across combination-search flushes; a chunk grows past
/// this only when a single event has more combinations.
constexpr int kComboChunkLanes = 16384;

/// Events per ExecuteBatch window. Stages and fills run window by window,
/// so every scratch frame (selections, iterator bindings, element and
/// combination lanes) is sized by the window rather than by the row group
/// and stays cache- and pool-sized however large the group is.
constexpr int64_t kEventWindowRows = 2048;

/// The per-row iterator bindings of one window, the batch-wide analogue
/// of EvalContext::iter_index: combination stages write winners here,
/// later stages and fills read them. Rows are absolute batch rows;
/// columns hold the window's rows from `base` on.
struct RowIters {
  uint32_t base = 0;
  uint32_t* col[kMaxIterators] = {nullptr, nullptr, nullptr, nullptr};

  uint32_t& at(int k, uint32_t row) const { return col[k][row - base]; }
};

/// A set of evaluation lanes: each lane is an (event row, iterator
/// bindings) tuple — an event for stage predicates, a list element for
/// aggregate bodies, a particle combination for searches. All iterator
/// columns are absolute child-array indices, like EvalContext::iter_index.
struct Frame {
  const BatchBindings* bindings = nullptr;
  int n = 0;
  const uint32_t* event = nullptr;
  const uint32_t* iter[kMaxIterators] = {nullptr, nullptr, nullptr, nullptr};
};

// ---- Purity analysis -------------------------------------------------------

/// A subtree is pure iff evaluating it neither touches the ops counter nor
/// binds iterators — i.e. it contains no aggregate or combination node.
bool IsPure(const Expr* e) {
  const ExprShape s = e->Shape();
  switch (s.kind) {
    case ExprShape::Kind::kAgg:
    case ExprShape::Kind::kBestCombination:
    case ExprShape::Kind::kAnyCombination:
      return false;
    default:
      break;
  }
  for (const Expr* op : s.operands) {
    if (!IsPure(op)) return false;
  }
  return true;
}

bool ContainsCombination(const Expr* e) {
  if (e == nullptr) return false;
  const ExprShape s = e->Shape();
  if (s.kind == ExprShape::Kind::kBestCombination ||
      s.kind == ExprShape::Kind::kAnyCombination) {
    return true;
  }
  for (const Expr* op : s.operands) {
    if (ContainsCombination(op)) return true;
  }
  return ContainsCombination(s.filter) || ContainsCombination(s.value);
}

// ---- Compiled structures ---------------------------------------------------

struct AggNode;

/// A whole-column input computed outside the VM program: either a
/// batched aggregate or a per-lane interpreter walk of one subtree.
struct Producer {
  std::unique_ptr<AggNode> agg;
  const Expr* interp = nullptr;
};

/// How one VProgram input slot is filled from a Frame. kCartesian slots
/// are bound in groups of four (px, py, pz, E of one particle) by the
/// decomposed-combination pre-pass below, not by the generic slot loop.
struct SlotDesc {
  enum class Kind {
    kScalar,
    kMember,
    kOrdinal,
    kListSize,
    kProduced,
    kCartesian
  };
  Kind kind = Kind::kScalar;
  int list_slot = -1;
  int iter_slot = -1;
  int member_slot = -1;
  int scalar_slot = -1;
  int producer = -1;
};

/// One per-element Cartesian conversion: the (pt, eta, phi, mass) member
/// quad of one list, converted through PtEtaPhiM::ToPxPyPzE — the same
/// out-of-line helper every interpreter combination calls, so gathering
/// converted components per lane is bit-identical to converting per lane.
struct CartesianTable {
  int list_slot = -1;
  std::array<int, 4> members{};
};

/// Four consecutive input slots (first_slot .. first_slot+3) holding the
/// px/py/pz/E of the particle one iterator binds, read from `table`.
struct CartesianGroup {
  int table = -1;
  int iter_slot = -1;
  int first_slot = -1;
};

/// Distinct (list, member-quad) tables one scalar can reference; queries
/// use one or two, the lowering falls back past the cap.
constexpr int kMaxCartesianTables = 8;

struct CompiledScalar {
  VProgram program;
  std::vector<SlotDesc> slots;
  std::vector<Producer> producers;
  std::vector<CartesianTable> ctables;
  std::vector<CartesianGroup> cgroups;

  bool pure() const { return producers.empty(); }
  void Eval(const Frame& f, VexprScratch* s, double* out,
            uint64_t* ops) const;
  /// Predicate form: binds and runs the fused gate, writing the passing
  /// lane positions (ascending) to sel_out and returning their count —
  /// the 0/1 vector of Eval never materializes.
  int Gate(const Frame& f, VexprScratch* s, bool negate, uint32_t* sel_out,
           uint64_t* ops) const;

 private:
  void BindCartesian(const Frame& f, VexprScratch* s,
                     std::vector<VColumn>* cols) const;
  /// Binds every input slot of `program` for frame `f` (cols must hold
  /// slots.size() entries). Producer slots evaluate here, so `ops`
  /// accounting is identical for Eval and Gate.
  void Bind(const Frame& f, VexprScratch* s, std::vector<VColumn>* cols,
            uint64_t* ops) const;
};

/// One atom of a conjunction: `scalar` must be nonzero (or zero when
/// negated) for a lane to pass.
struct Conjunct {
  bool negate = false;
  CompiledScalar scalar;
};

/// An ordered conjunction evaluated with lane narrowing: conjunct k runs
/// only on lanes that passed conjuncts 0..k-1, which reproduces the
/// interpreter's left-to-right && short-circuit for any producers inside.
struct CompiledPredicate {
  std::vector<Conjunct> conjuncts;

  bool pure() const {
    for (const Conjunct& c : conjuncts) {
      if (!c.scalar.pure()) return false;
    }
    return true;
  }

  /// Narrows `live` (ascending lane indices into `f`) to passing lanes.
  void Narrow(const Frame& f, VexprScratch* s, std::vector<uint32_t>* live,
              uint64_t* ops) const;

  /// Writes 0/1 per lane without narrowing. Only valid when pure().
  void Eval01(const Frame& f, VexprScratch* s, double* out,
              uint64_t* ops) const;
};

struct AggNode {
  AggKind kind = AggKind::kCount;
  int list_slot = -1;
  int iter_slot = -1;
  bool has_filter = false;
  CompiledPredicate filter;
  bool has_value = false;
  CompiledScalar value;

  void Eval(const Frame& f, VexprScratch* s, double* out,
            uint64_t* ops) const;
};

/// A combination search in stage position: enumerates the deduplicated
/// Cartesian product per event, reduces to the best / first passing
/// combination, binds winners, and narrows the event selection.
struct ComboSearch {
  std::vector<ComboLoop> loops;
  bool best = false;  // strict-minimum argmin vs existence
  bool has_filter = false;
  CompiledScalar filter;  // pure by construction
  CompiledScalar key;     // pure; best only
};

/// One step of a stage's top-level conjunction.
struct StageUnit {
  enum class Kind { kConjunct, kCombo, kInterp };
  Kind kind = Kind::kConjunct;
  Conjunct conjunct;
  ComboSearch combo;
  const Expr* interp = nullptr;
};

struct CompiledStage {
  std::vector<StageUnit> units;
};

struct CompiledFill {
  enum class Kind { kScalar, kElement, kCombo, kInterp };
  Kind kind = Kind::kScalar;
  CompiledScalar scalar;  // kScalar
  int list_slot = -1;     // kElement
  int iter_slot = -1;
  bool has_filter = false;
  CompiledPredicate filter;  // kElement / kCombo
  CompiledScalar value;
  std::vector<ComboLoop> loops;             // kCombo
  const CompiledQuerySpec::Fill* src = nullptr;  // kInterp
};

// ---- Frame helpers ---------------------------------------------------------

/// Gathers `f` at `idx[0..m)` into scratch-backed buffers. The caller's
/// scratch scope owns the result's storage.
Frame GatherFrame(const Frame& f, const uint32_t* idx, int m,
                  VexprScratch* s) {
  Frame g;
  g.bindings = f.bindings;
  g.n = m;
  std::vector<uint32_t>* ev = s->AcquireU32();
  ev->resize(static_cast<size_t>(m));
  for (int i = 0; i < m; ++i) (*ev)[i] = f.event[idx[i]];
  g.event = ev->data();
  for (int k = 0; k < kMaxIterators; ++k) {
    std::vector<uint32_t>* it = s->AcquireU32();
    it->resize(static_cast<size_t>(m));
    for (int i = 0; i < m; ++i) (*it)[i] = f.iter[k][idx[i]];
    g.iter[k] = it->data();
  }
  return g;
}

/// Builds the event-level frame for the current selection: one lane per
/// selected row, iterators gathered from the per-row binding columns.
Frame MakeEventFrame(const BatchBindings& bindings,
                     const std::vector<uint32_t>& sel,
                     const RowIters& bc, VexprScratch* s) {
  Frame f;
  f.bindings = &bindings;
  f.n = static_cast<int>(sel.size());
  f.event = sel.data();
  for (int k = 0; k < kMaxIterators; ++k) {
    std::vector<uint32_t>* it = s->AcquireU32();
    it->resize(sel.size());
    for (size_t i = 0; i < sel.size(); ++i) (*it)[i] = bc.at(k, sel[i]);
    f.iter[k] = it->data();
  }
  return f;
}

// ---- Evaluation ------------------------------------------------------------

void CompiledScalar::BindCartesian(const Frame& f, VexprScratch* s,
                                   std::vector<VColumn>* cols) const {
  if (cgroups.empty() || f.n <= 0) return;

  // Two strategies per table, chosen by element reuse. A shared table
  // converts every element of [min, max] once and each lane gathers
  // components; the dense fallback converts per (lane, particle), exactly
  // the interpreter's cost, and wins when lanes reference few elements
  // from a wide index range. Both convert through the same helper, so the
  // choice never changes a bit of the result.
  //
  // A table's [min, max] is a min/max reduction per group with no
  // per-lane branch, which Release (-O3) builds vectorize; f.n > 0 makes
  // it a valid range for every table that has a group.
  struct TableBind {
    uint32_t min = std::numeric_limits<uint32_t>::max();
    uint32_t max = 0;
    bool shared = false;
    int64_t ngroups = 0;
    const double* comp[4] = {nullptr, nullptr, nullptr, nullptr};
  };
  TableBind tb[kMaxCartesianTables];
  for (const CartesianGroup& g : cgroups) {
    TableBind& t = tb[g.table];
    ++t.ngroups;
    const uint32_t* it = f.iter[g.iter_slot];
    uint32_t lo = t.min;
    uint32_t hi = t.max;
    for (int i = 0; i < f.n; ++i) {
      lo = std::min(lo, it[i]);
      hi = std::max(hi, it[i]);
    }
    t.min = lo;
    t.max = hi;
  }
  for (size_t ti = 0; ti < ctables.size(); ++ti) {
    TableBind& t = tb[ti];
    if (t.ngroups == 0) continue;
    const int64_t range = static_cast<int64_t>(t.max) - t.min + 1;
    if (range > t.ngroups * f.n) continue;
    const CartesianTable& ct = ctables[ti];
    const ListBinding& list = f.bindings->list(ct.list_slot);
    const MemberAccessor& mpt = list.members[static_cast<size_t>(ct.members[0])];
    const MemberAccessor& meta = list.members[static_cast<size_t>(ct.members[1])];
    const MemberAccessor& mphi = list.members[static_cast<size_t>(ct.members[2])];
    const MemberAccessor& mmass = list.members[static_cast<size_t>(ct.members[3])];
    double* comp[4];
    for (int c = 0; c < 4; ++c) {
      std::vector<double>* buf = s->AcquireF64();
      buf->resize(static_cast<size_t>(range));
      comp[c] = buf->data();
      t.comp[c] = comp[c];
    }
    for (int64_t r = 0; r < range; ++r) {
      const uint32_t j = t.min + static_cast<uint32_t>(r);
      const PxPyPzE v =
          PtEtaPhiM{mpt.Get(j), meta.Get(j), mphi.Get(j), mmass.Get(j)}
              .ToPxPyPzE();
      comp[0][r] = v.px;
      comp[1][r] = v.py;
      comp[2][r] = v.pz;
      comp[3][r] = v.e;
    }
    t.shared = true;
  }
  for (const CartesianGroup& g : cgroups) {
    const TableBind& t = tb[g.table];
    if (t.shared) {
      const uint32_t* idx = f.iter[g.iter_slot];
      if (t.min != 0) {
        std::vector<uint32_t>* adj = s->AcquireU32();
        adj->resize(static_cast<size_t>(f.n));
        for (int i = 0; i < f.n; ++i) (*adj)[i] = idx[i] - t.min;
        idx = adj->data();
      }
      for (int c = 0; c < 4; ++c) {
        VColumn vc;
        vc.type = TypeId::kFloat64;
        vc.data = t.comp[c];
        vc.index = idx;
        (*cols)[static_cast<size_t>(g.first_slot + c)] = vc;
      }
    } else {
      const CartesianTable& ct = ctables[static_cast<size_t>(g.table)];
      const ListBinding& list = f.bindings->list(ct.list_slot);
      const MemberAccessor& mpt =
          list.members[static_cast<size_t>(ct.members[0])];
      const MemberAccessor& meta =
          list.members[static_cast<size_t>(ct.members[1])];
      const MemberAccessor& mphi =
          list.members[static_cast<size_t>(ct.members[2])];
      const MemberAccessor& mmass =
          list.members[static_cast<size_t>(ct.members[3])];
      double* comp[4];
      for (int c = 0; c < 4; ++c) {
        std::vector<double>* buf = s->AcquireF64();
        buf->resize(static_cast<size_t>(f.n));
        comp[c] = buf->data();
      }
      const uint32_t* it = f.iter[g.iter_slot];
      for (int i = 0; i < f.n; ++i) {
        const uint32_t j = it[i];
        const PxPyPzE v =
            PtEtaPhiM{mpt.Get(j), meta.Get(j), mphi.Get(j), mmass.Get(j)}
                .ToPxPyPzE();
        comp[0][i] = v.px;
        comp[1][i] = v.py;
        comp[2][i] = v.pz;
        comp[3][i] = v.e;
      }
      for (int c = 0; c < 4; ++c) {
        VColumn vc;
        vc.type = TypeId::kFloat64;
        vc.data = comp[c];
        (*cols)[static_cast<size_t>(g.first_slot + c)] = vc;
      }
    }
  }
}

void CompiledScalar::Eval(const Frame& f, VexprScratch* s, double* out,
                          uint64_t* ops) const {
  VexprScratch::Scope scope(s);
  std::vector<VColumn>* cols = s->AcquireCols();
  cols->resize(slots.size());
  Bind(f, s, cols, ops);
  program.Run(cols->data(), f.n, &s->vm, out);
}

int CompiledScalar::Gate(const Frame& f, VexprScratch* s, bool negate,
                         uint32_t* sel_out, uint64_t* ops) const {
  VexprScratch::Scope scope(s);
  std::vector<VColumn>* cols = s->AcquireCols();
  cols->resize(slots.size());
  Bind(f, s, cols, ops);
  return program.RunGate(cols->data(), f.n, &s->vm, negate, sel_out);
}

void CompiledScalar::Bind(const Frame& f, VexprScratch* s,
                          std::vector<VColumn>* cols, uint64_t* ops) const {
  BindCartesian(f, s, cols);
  for (size_t i = 0; i < slots.size(); ++i) {
    const SlotDesc& d = slots[i];
    if (d.kind == SlotDesc::Kind::kCartesian) continue;
    VColumn c;
    switch (d.kind) {
      case SlotDesc::Kind::kScalar: {
        const MemberAccessor& a = f.bindings->scalar(d.scalar_slot);
        c.type = a.type;
        c.data = a.data;
        c.index = f.event;
        break;
      }
      case SlotDesc::Kind::kMember: {
        const MemberAccessor& a =
            f.bindings->list(d.list_slot)
                .members[static_cast<size_t>(d.member_slot)];
        c.type = a.type;
        c.data = a.data;
        c.index = f.iter[d.iter_slot];
        break;
      }
      case SlotDesc::Kind::kOrdinal: {
        std::vector<double>* buf = s->AcquireF64();
        buf->resize(static_cast<size_t>(f.n));
        const ListBinding& list = f.bindings->list(d.list_slot);
        const uint32_t* it = f.iter[d.iter_slot];
        for (int j = 0; j < f.n; ++j) {
          (*buf)[j] = static_cast<double>(it[j] - list.begin(f.event[j]));
        }
        c.type = TypeId::kFloat64;
        c.data = buf->data();
        break;
      }
      case SlotDesc::Kind::kListSize: {
        std::vector<double>* buf = s->AcquireF64();
        buf->resize(static_cast<size_t>(f.n));
        const ListBinding& list = f.bindings->list(d.list_slot);
        for (int j = 0; j < f.n; ++j) {
          (*buf)[j] = static_cast<double>(list.size(f.event[j]));
        }
        c.type = TypeId::kFloat64;
        c.data = buf->data();
        break;
      }
      case SlotDesc::Kind::kProduced: {
        std::vector<double>* buf = s->AcquireF64();
        buf->resize(static_cast<size_t>(f.n));
        const Producer& p = producers[static_cast<size_t>(d.producer)];
        if (p.agg != nullptr) {
          p.agg->Eval(f, s, buf->data(), ops);
        } else {
          // Per-lane interpreter walk: exact semantics (short-circuit, ops
          // side effects) for the one subtree the VM cannot express.
          for (int j = 0; j < f.n; ++j) {
            EvalContext ctx;
            ctx.bindings = f.bindings;
            ctx.row = f.event[j];
            for (int k = 0; k < kMaxIterators; ++k) {
              ctx.iter_index[k] = f.iter[k][j];
            }
            (*buf)[j] = p.interp->Eval(&ctx);
            *ops += ctx.ops;
          }
        }
        c.type = TypeId::kFloat64;
        c.data = buf->data();
        break;
      }
      case SlotDesc::Kind::kCartesian:
        break;  // bound by BindCartesian above
    }
    (*cols)[i] = c;
  }
}

void CompiledPredicate::Narrow(const Frame& f, VexprScratch* s,
                               std::vector<uint32_t>* live,
                               uint64_t* ops) const {
  for (const Conjunct& c : conjuncts) {
    if (live->empty()) return;
    VexprScratch::Scope scope(s);
    const int m = static_cast<int>(live->size());
    // Live lanes are an ascending subset of [0, f.n), so a full-size set
    // is the identity and the frame can be used as-is.
    const Frame g = m == f.n ? f : GatherFrame(f, live->data(), m, s);
    // Fused gate+fill: the gate emits passing positions within the live
    // set directly (ascending), so the narrow is an in-place remap.
    std::vector<uint32_t>* gate = s->AcquireU32();
    gate->resize(static_cast<size_t>(m));
    const int kept = c.scalar.Gate(g, s, c.negate, gate->data(), ops);
    for (int i = 0; i < kept; ++i) (*live)[i] = (*live)[(*gate)[i]];
    live->resize(static_cast<size_t>(kept));
  }
}

void CompiledPredicate::Eval01(const Frame& f, VexprScratch* s, double* out,
                               uint64_t* ops) const {
  VexprScratch::Scope scope(s);
  std::vector<double>* vals = s->AcquireF64();
  vals->resize(static_cast<size_t>(f.n));
  for (int i = 0; i < f.n; ++i) out[i] = 1.0;
  for (const Conjunct& c : conjuncts) {
    c.scalar.Eval(f, s, vals->data(), ops);
    for (int i = 0; i < f.n; ++i) {
      const bool pass = ((*vals)[i] != 0.0) != c.negate;
      if (!pass) out[i] = 0.0;
    }
  }
}

void AggNode::Eval(const Frame& f, VexprScratch* s, double* out,
                   uint64_t* ops) const {
  VexprScratch::Scope scope(s);
  const ListBinding& list = f.bindings->list(list_slot);

  // Child frame: one lane per (parent lane, list element), elements in
  // ascending order within each parent lane — the interpreter's loop order.
  std::vector<uint32_t>* cev = s->AcquireU32();
  std::vector<uint32_t>* seg = s->AcquireU32();
  std::vector<uint32_t>* cit[kMaxIterators];
  for (int k = 0; k < kMaxIterators; ++k) cit[k] = s->AcquireU32();
  seg->reserve(static_cast<size_t>(f.n) + 1);
  for (int L = 0; L < f.n; ++L) {
    seg->push_back(static_cast<uint32_t>(cev->size()));
    const uint32_t e = f.event[L];
    const uint32_t begin = list.begin(e);
    const uint32_t end = list.end(e);
    for (uint32_t j = begin; j < end; ++j) {
      cev->push_back(e);
      for (int k = 0; k < kMaxIterators; ++k) {
        cit[k]->push_back(k == iter_slot ? j : f.iter[k][L]);
      }
    }
  }
  seg->push_back(static_cast<uint32_t>(cev->size()));
  const int cn = static_cast<int>(cev->size());
  Frame cf;
  cf.bindings = f.bindings;
  cf.n = cn;
  cf.event = cev->data();
  for (int k = 0; k < kMaxIterators; ++k) cf.iter[k] = cit[k]->data();

  if (kind == AggKind::kAny) {
    // The interpreter counts one op per element visited and stops at the
    // first element whose filter passes and value is nonzero. Filter and
    // value are pure here (enforced at compile time), so batch-evaluating
    // them over all elements is unobservable; only the visit count must
    // respect the early exit.
    double* fv = nullptr;
    double* vv = nullptr;
    if (has_filter) {
      std::vector<double>* fbuf = s->AcquireF64();
      fbuf->resize(static_cast<size_t>(cn));
      filter.Eval01(cf, s, fbuf->data(), ops);
      fv = fbuf->data();
    }
    if (has_value) {
      std::vector<double>* vbuf = s->AcquireF64();
      vbuf->resize(static_cast<size_t>(cn));
      value.Eval(cf, s, vbuf->data(), ops);
      vv = vbuf->data();
    }
    for (int L = 0; L < f.n; ++L) {
      const uint32_t begin = (*seg)[static_cast<size_t>(L)];
      const uint32_t end = (*seg)[static_cast<size_t>(L) + 1];
      bool found = false;
      uint64_t visited = 0;
      for (uint32_t j = begin; j < end; ++j) {
        ++visited;
        if (fv != nullptr && fv[j] == 0.0) continue;
        const double v = vv != nullptr ? vv[j] : 1.0;
        if (v != 0.0) {
          found = true;
          break;
        }
      }
      out[L] = found ? 1.0 : 0.0;
      *ops += visited;
    }
    return;
  }

  // Count / sum / min / max visit every element.
  *ops += static_cast<uint64_t>(cn);
  std::vector<uint32_t>* live = s->AcquireU32();
  live->resize(static_cast<size_t>(cn));
  for (int j = 0; j < cn; ++j) (*live)[static_cast<size_t>(j)] =
      static_cast<uint32_t>(j);
  if (has_filter) filter.Narrow(cf, s, live, ops);
  const int m = static_cast<int>(live->size());
  double* vv = nullptr;
  if (has_value) {
    const Frame vf = m == cn ? cf : GatherFrame(cf, live->data(), m, s);
    std::vector<double>* vbuf = s->AcquireF64();
    vbuf->resize(static_cast<size_t>(m));
    value.Eval(vf, s, vbuf->data(), ops);
    vv = vbuf->data();
  }
  double init = 0.0;
  if (kind == AggKind::kMin) init = std::numeric_limits<double>::infinity();
  if (kind == AggKind::kMax) init = -std::numeric_limits<double>::infinity();
  for (int L = 0; L < f.n; ++L) out[L] = init;
  // Passing lanes are ascending, so walking them with a cursor over the
  // segment table reduces each parent lane in interpreter element order.
  size_t L = 0;
  for (int i = 0; i < m; ++i) {
    const uint32_t j = (*live)[static_cast<size_t>(i)];
    while ((*seg)[L + 1] <= j) ++L;
    const double v = vv != nullptr ? vv[i] : 1.0;
    switch (kind) {
      case AggKind::kCount:
        out[L] += 1.0;
        break;
      case AggKind::kSum:
        out[L] += v;
        break;
      case AggKind::kMin:
        out[L] = std::min(out[L], v);
        break;
      case AggKind::kMax:
        out[L] = std::max(out[L], v);
        break;
      case AggKind::kAny:
        break;  // handled above
    }
  }
}

// ---- Lowering --------------------------------------------------------------

CompiledScalar LowerScalar(const Expr* e);
CompiledPredicate LowerPredicate(const Expr* e);

class ScalarLowerer {
 public:
  CompiledScalar Lower(const Expr* root) {
    const int reg = LowerNode(root);
    cs_.program = b_.Finish({reg});
    return std::move(cs_);
  }

  /// Lowers the whole tree as one per-lane interpreter producer — used
  /// when batching any part would change observable binding semantics.
  CompiledScalar LowerAsInterp(const Expr* root) {
    const int reg = InterpLoad(root);
    cs_.program = b_.Finish({reg});
    return std::move(cs_);
  }

 private:
  CompiledScalar cs_;
  VProgramBuilder b_;
  std::map<std::array<int, 4>, int> leaf_slots_;

  int LeafLoad(SlotDesc d) {
    const std::array<int, 4> key{static_cast<int>(d.kind), d.list_slot,
                                 d.iter_slot >= 0 ? d.iter_slot
                                                  : d.scalar_slot,
                                 d.member_slot};
    auto it = leaf_slots_.find(key);
    if (it != leaf_slots_.end()) return b_.Load(it->second);
    const int slot = static_cast<int>(cs_.slots.size());
    cs_.slots.push_back(d);
    leaf_slots_.emplace(key, slot);
    return b_.Load(slot);
  }

  int ProducerLoad(Producer p) {
    SlotDesc d;
    d.kind = SlotDesc::Kind::kProduced;
    d.producer = static_cast<int>(cs_.producers.size());
    cs_.producers.push_back(std::move(p));
    const int slot = static_cast<int>(cs_.slots.size());
    cs_.slots.push_back(d);
    return b_.Load(slot);
  }

  int InterpLoad(const Expr* e) {
    Producer p;
    p.interp = e;
    return ProducerLoad(std::move(p));
  }

  /// Lowers InvMass2/InvMass3/SumPt3 calls whose arguments are per-particle
  /// (pt, eta, phi, mass) member quads to the decomposed Cartesian form:
  /// slots deliver px/py/pz/E converted once per list element, the opcode
  /// only adds and reduces per lane. Returns -1 when the call does not
  /// match (arguments are not plain iterator members), leaving
  /// VProgramBuilder::Call to convert per lane with component ops.
  int TryLowerCartesianCall(const ExprShape& s) {
    VOp op;
    size_t particles;
    switch (s.fn) {
      case Fn::kInvMass2:
        op = VOp::kMassOfSum2;
        particles = 2;
        break;
      case Fn::kInvMass3:
        op = VOp::kMassOfSum3;
        particles = 3;
        break;
      case Fn::kSumPt3:
        op = VOp::kPtOfSum3;
        particles = 3;
        break;
      default:
        return -1;
    }
    if (s.operands.size() != particles * 4) return -1;
    std::vector<int> regs;
    regs.reserve(particles * 4);
    for (size_t g = 0; g < particles; ++g) {
      int list = -1;
      int iter = -1;
      std::array<int, 4> members{};
      for (int c = 0; c < 4; ++c) {
        const ExprShape a = s.operands[g * 4 + static_cast<size_t>(c)]->Shape();
        if (a.kind != ExprShape::Kind::kIterMember) return -1;
        if (c == 0) {
          list = a.list_slot;
          iter = a.iter_slot;
        } else if (a.list_slot != list || a.iter_slot != iter) {
          return -1;
        }
        members[static_cast<size_t>(c)] = a.member_slot;
      }
      int table = -1;
      for (size_t t = 0; t < cs_.ctables.size(); ++t) {
        if (cs_.ctables[t].list_slot == list &&
            cs_.ctables[t].members == members) {
          table = static_cast<int>(t);
          break;
        }
      }
      if (table < 0) {
        if (cs_.ctables.size() >= kMaxCartesianTables) return -1;
        table = static_cast<int>(cs_.ctables.size());
        cs_.ctables.push_back({list, members});
      }
      int first_slot = -1;
      for (const CartesianGroup& cg : cs_.cgroups) {
        if (cg.table == table && cg.iter_slot == iter) {
          first_slot = cg.first_slot;
          break;
        }
      }
      if (first_slot < 0) {
        first_slot = static_cast<int>(cs_.slots.size());
        for (int c = 0; c < 4; ++c) {
          SlotDesc d;
          d.kind = SlotDesc::Kind::kCartesian;
          d.list_slot = list;
          d.iter_slot = iter;
          d.member_slot = c;  // component: px, py, pz, E
          cs_.slots.push_back(d);
        }
        cs_.cgroups.push_back({table, iter, first_slot});
      }
      // kPtOfSum3 reads (px, py) per particle, the masses all four.
      const int used = op == VOp::kPtOfSum3 ? 2 : 4;
      for (int c = 0; c < used; ++c) regs.push_back(b_.Load(first_slot + c));
    }
    return b_.Op(op, regs);
  }

  int LowerNode(const Expr* e) {
    const ExprShape s = e->Shape();
    switch (s.kind) {
      case ExprShape::Kind::kLit:
        return b_.Const(s.lit);
      case ExprShape::Kind::kScalarRef: {
        SlotDesc d;
        d.kind = SlotDesc::Kind::kScalar;
        d.scalar_slot = s.scalar_slot;
        return LeafLoad(d);
      }
      case ExprShape::Kind::kIterMember: {
        SlotDesc d;
        d.kind = SlotDesc::Kind::kMember;
        d.list_slot = s.list_slot;
        d.iter_slot = s.iter_slot;
        d.member_slot = s.member_slot;
        return LeafLoad(d);
      }
      case ExprShape::Kind::kIterOrdinal: {
        SlotDesc d;
        d.kind = SlotDesc::Kind::kOrdinal;
        d.list_slot = s.list_slot;
        d.iter_slot = s.iter_slot;
        return LeafLoad(d);
      }
      case ExprShape::Kind::kListSize: {
        SlotDesc d;
        d.kind = SlotDesc::Kind::kListSize;
        d.list_slot = s.list_slot;
        return LeafLoad(d);
      }
      case ExprShape::Kind::kBin: {
        if ((s.bin_op == BinOp::kAnd || s.bin_op == BinOp::kOr) &&
            (!IsPure(s.operands[0]) || !IsPure(s.operands[1]))) {
          // Eager evaluation would run the impure side on lanes the
          // interpreter short-circuits past, skewing the ops counter.
          return InterpLoad(e);
        }
        const int l = LowerNode(s.operands[0]);
        const int r = LowerNode(s.operands[1]);
        return b_.Op(VOpFor(s.bin_op), {l, r});
      }
      case ExprShape::Kind::kCall: {
        const int cart = TryLowerCartesianCall(s);
        if (cart >= 0) return cart;
        std::vector<int> regs;
        regs.reserve(s.operands.size());
        for (const Expr* arg : s.operands) regs.push_back(LowerNode(arg));
        return b_.Call(s.fn, regs);
      }
      case ExprShape::Kind::kAgg: {
        auto node = std::make_unique<AggNode>();
        node->kind = s.agg_kind;
        node->list_slot = s.list_slot;
        node->iter_slot = s.iter_slot;
        if (s.filter != nullptr) {
          node->has_filter = true;
          node->filter = LowerPredicate(s.filter);
        }
        if (s.value != nullptr) {
          node->has_value = true;
          node->value = LowerScalar(s.value);
        }
        if (s.agg_kind == AggKind::kAny &&
            ((node->has_filter && !node->filter.pure()) ||
             (node->has_value && !node->value.pure()))) {
          // kAny's early exit makes the inner ops count data-dependent;
          // only pure bodies can be batched without observing it.
          return InterpLoad(e);
        }
        Producer p;
        p.agg = std::move(node);
        return ProducerLoad(std::move(p));
      }
      case ExprShape::Kind::kBestCombination:
      case ExprShape::Kind::kAnyCombination:
        // In value position the bindings a search establishes must be
        // visible to the enclosing evaluation only — the per-lane walk
        // keeps that containment exact.
        return InterpLoad(e);
    }
    return b_.Const(0.0);
  }
};

CompiledScalar LowerScalar(const Expr* e) {
  ScalarLowerer lowerer;
  return lowerer.Lower(e);
}

void SplitConjuncts(const Expr* e, std::vector<const Expr*>* out) {
  const ExprShape s = e->Shape();
  if (s.kind == ExprShape::Kind::kBin && s.bin_op == BinOp::kAnd) {
    SplitConjuncts(s.operands[0], out);
    SplitConjuncts(s.operands[1], out);
    return;
  }
  out->push_back(e);
}

Conjunct LowerConjunct(const Expr* e) {
  Conjunct c;
  // Unwrap Not(...) wrappers into the negate flag so the atom inside can
  // still narrow lanes (Q7's veto: Not(any lepton close by)).
  while (true) {
    const ExprShape s = e->Shape();
    if (s.kind == ExprShape::Kind::kCall && s.fn == Fn::kNot) {
      c.negate = !c.negate;
      e = s.operands[0];
      continue;
    }
    break;
  }
  c.scalar = LowerScalar(e);
  return c;
}

CompiledPredicate LowerPredicate(const Expr* e) {
  CompiledPredicate p;
  std::vector<const Expr*> parts;
  SplitConjuncts(e, &parts);
  p.conjuncts.reserve(parts.size());
  for (const Expr* part : parts) p.conjuncts.push_back(LowerConjunct(part));
  return p;
}

CompiledStage LowerStage(const Expr* root) {
  CompiledStage stage;
  std::vector<const Expr*> parts;
  SplitConjuncts(root, &parts);
  for (const Expr* part : parts) {
    StageUnit unit;
    const ExprShape s = part->Shape();
    const bool is_search = s.kind == ExprShape::Kind::kBestCombination ||
                           s.kind == ExprShape::Kind::kAnyCombination;
    if (is_search && (s.filter == nullptr || IsPure(s.filter)) &&
        (s.value == nullptr || IsPure(s.value))) {
      unit.kind = StageUnit::Kind::kCombo;
      unit.combo.loops = s.loops;
      unit.combo.best = s.kind == ExprShape::Kind::kBestCombination;
      if (s.filter != nullptr) {
        unit.combo.has_filter = true;
        unit.combo.filter = LowerScalar(s.filter);
      }
      if (s.value != nullptr) unit.combo.key = LowerScalar(s.value);
    } else if (ContainsCombination(part)) {
      // A search not at conjunct root (or with impure innards) must bind
      // iterators through the per-event walk to keep them visible to
      // later stages and fills.
      unit.kind = StageUnit::Kind::kInterp;
      unit.interp = part;
    } else {
      unit.kind = StageUnit::Kind::kConjunct;
      unit.conjunct = LowerConjunct(part);
    }
    stage.units.push_back(std::move(unit));
  }
  return stage;
}

CompiledFill LowerFill(const CompiledQuerySpec::Fill& fill) {
  CompiledFill out;
  out.src = &fill;
  const bool combos_inside = ContainsCombination(fill.scalar.get()) ||
                             ContainsCombination(fill.filter.get()) ||
                             ContainsCombination(fill.value.get());
  if (combos_inside) {
    out.kind = CompiledFill::Kind::kInterp;
    return out;
  }
  if (fill.per_combination) {
    out.kind = CompiledFill::Kind::kCombo;
    out.loops = fill.loops;
    if (fill.filter != nullptr) {
      out.has_filter = true;
      out.filter = LowerPredicate(fill.filter.get());
    }
    out.value = LowerScalar(fill.value.get());
    return out;
  }
  if (fill.per_element) {
    out.kind = CompiledFill::Kind::kElement;
    out.list_slot = fill.list_slot;
    out.iter_slot = fill.iter_slot;
    if (fill.filter != nullptr) {
      out.has_filter = true;
      out.filter = LowerPredicate(fill.filter.get());
    }
    out.value = LowerScalar(fill.value.get());
    return out;
  }
  out.kind = CompiledFill::Kind::kScalar;
  out.scalar = LowerScalar(fill.scalar.get());
  return out;
}

// ---- Combination enumeration -----------------------------------------------

/// The per-loop constants of one combination search, resolved once per
/// driver call. Loop d runs over [Begin(d), End(d)) of its list: past the
/// nearest earlier loop over the same list (strictly increasing ordinals,
/// the symmetric deduplication), and short of the elements the later loops
/// over that list still need. The short end only drops prefixes that
/// complete no combination, so every range the odometer reaches is
/// non-empty and the order is the interpreter's nested-loop order.
struct ComboPlan {
  int depth = 0;
  const ListBinding* list[kMaxIterators] = {};
  int slot[kMaxIterators] = {};
  int prev_same[kMaxIterators] = {};   // earlier loop on the list, or -1
  uint32_t later_same[kMaxIterators] = {};  // later loops on the list
  bool inherited[kMaxIterators] = {true, true, true, true};

  ComboPlan(const std::vector<ComboLoop>& loops,
            const BatchBindings& bindings)
      : depth(static_cast<int>(loops.size())) {
    for (int d = 0; d < depth; ++d) {
      list[d] = &bindings.list(loops[static_cast<size_t>(d)].list_slot);
      slot[d] = loops[static_cast<size_t>(d)].iter_slot;
      inherited[slot[d]] = false;
      prev_same[d] = -1;
      for (int e = 0; e < depth; ++e) {
        if (loops[static_cast<size_t>(e)].list_slot !=
            loops[static_cast<size_t>(d)].list_slot) {
          continue;
        }
        if (e < d) prev_same[d] = e;
        if (e > d) ++later_same[d];
      }
    }
  }

  /// Combinations of event `row`: the product over distinct lists of
  /// C(n_L, k_L), k_L being the number of loops over list L.
  uint64_t Count(uint32_t row) const {
    uint64_t count = 1;
    for (int d = 0; d < depth; ++d) {
      if (prev_same[d] >= 0) continue;  // counted with the list's first loop
      count *= Choose(list[d]->size(row), later_same[d] + 1);
    }
    return count;
  }

  /// C(n, k) for the 1..kMaxIterators loops one list can carry; constant
  /// divisors, so no division instruction runs per event.
  static uint64_t Choose(uint64_t n, uint32_t k) {
    if (n < k) return 0;
    switch (k) {
      case 1:
        return n;
      case 2:
        return n * (n - 1) / 2;
      case 3:
        return n * (n - 1) * (n - 2) / 6;
      default:
        return n * (n - 1) * (n - 2) * (n - 3) / 24;
    }
  }

  uint32_t Begin(int d, uint32_t row, const uint32_t* cur) const {
    return prev_same[d] < 0 ? list[d]->begin(row) : cur[prev_same[d]] + 1;
  }
  uint32_t End(int d, uint32_t row) const {
    return list[d]->end(row) - later_same[d];
  }
};

/// A combination driver's lane columns: event id and one column per
/// iterator slot, `n` lanes live. A flush only resets `n`; the columns keep
/// their size, so within one driver call a lane position is zeroed once
/// (when the columns first grow past it), not once per chunk. Growth is
/// exactly to the lanes needed: capacity past the size is never touched,
/// so it costs no resident memory.
struct ComboLanes {
  std::vector<uint32_t>* ev = nullptr;
  std::vector<uint32_t>* cit[kMaxIterators] = {};
  size_t n = 0;

  explicit ComboLanes(VexprScratch* s) : ev(s->AcquireU32()) {
    for (int k = 0; k < kMaxIterators; ++k) cit[k] = s->AcquireU32();
  }

  void Reserve(size_t lanes) {
    if (ev->size() >= lanes) return;
    ev->resize(lanes);
    for (int k = 0; k < kMaxIterators; ++k) cit[k]->resize(lanes);
  }

  Frame AsFrame(const BatchBindings& bindings) const {
    Frame f;
    f.bindings = &bindings;
    f.n = static_cast<int>(n);
    f.event = ev->data();
    for (int k = 0; k < kMaxIterators; ++k) f.iter[k] = cit[k]->data();
    return f;
  }
};

/// Appends every (symmetric-deduplicated) combination of event `row` as
/// lanes: event id, loop iterators set to the combination, other iterators
/// inherited from the binding columns. The count comes first, so the
/// columns grow once; an odometer over the outer loops then writes each
/// innermost range as an ascending run. Returns the count, which is the
/// interpreter's per-event ops contribution.
uint64_t EnumerateCombos(const ComboPlan& p, uint32_t row,
                         const RowIters& bc, ComboLanes* out) {
  const uint64_t count = p.Count(row);
  if (count == 0) return 0;
  const size_t base = out->n;
  out->Reserve(base + count);
  out->n = base + count;
  std::fill_n(out->ev->data() + base, count, row);
  for (int k = 0; k < kMaxIterators; ++k) {
    if (p.inherited[k]) {
      std::fill_n(out->cit[k]->data() + base, count, bc.at(k, row));
    }
  }
  if (p.depth == 0) return count;  // the one empty combination

  const int inner = p.depth - 1;
  uint32_t* col[kMaxIterators];
  for (int d = 0; d < p.depth; ++d) col[d] = out->cit[p.slot[d]]->data();
  uint32_t cur[kMaxIterators] = {0, 0, 0, 0};
  for (int d = 0; d < inner; ++d) cur[d] = p.Begin(d, row, cur);
  const uint32_t inner_end = p.End(inner, row);
  size_t pos = base;
  while (true) {
    const uint32_t first = p.Begin(inner, row, cur);
    const size_t len = inner_end - first;
    std::iota(col[inner] + pos, col[inner] + pos + len, first);
    for (int d = 0; d < inner; ++d) std::fill_n(col[d] + pos, len, cur[d]);
    pos += len;
    int d = inner - 1;
    while (d >= 0 && ++cur[d] >= p.End(d, row)) --d;
    if (d < 0) break;
    for (++d; d < inner; ++d) cur[d] = p.Begin(d, row, cur);
  }
  return count;
}

/// Records one enumeration span of a combination driver: lanes written
/// and the ns spent writing them (counter `combo_enumerate`).
void CountEnumeration(bool traced, int64_t t0, uint64_t lanes) {
  if (traced) {
    obs::CountStage("combo_enumerate", obs::Stage::kExpr, obs::NowNs() - t0,
                    lanes);
  }
}

/// Runs a combination-search stage unit: narrows `sel` to events with a
/// qualifying combination and binds the winning iterators into `bc`.
void RunComboUnit(const ComboSearch& cs, const BatchBindings& bindings,
                  std::vector<uint32_t>* sel, const RowIters& bc,
                  VexprScratch* s, uint64_t* ops) {
  VexprScratch::Scope scope(s);
  const bool traced = obs::TracingActive();
  const ComboPlan plan(cs.loops, bindings);
  ComboLanes lanes(s);
  std::vector<uint32_t>* ev_rows = s->AcquireU32();
  std::vector<uint32_t>* ev_start = s->AcquireU32();
  std::vector<uint32_t>* newsel = s->AcquireU32();
  newsel->reserve(sel->size());

  const auto flush = [&]() {
    if (ev_rows->empty()) return;
    VexprScratch::Scope flush_scope(s);
    const int cn = static_cast<int>(lanes.n);
    const Frame f = lanes.AsFrame(bindings);
    const double* fv = nullptr;
    const double* kv = nullptr;
    if (cs.has_filter) {
      std::vector<double>* fbuf = s->AcquireF64();
      fbuf->resize(static_cast<size_t>(cn));
      cs.filter.Eval(f, s, fbuf->data(), ops);
      fv = fbuf->data();
    }
    if (cs.best) {
      std::vector<double>* kbuf = s->AcquireF64();
      kbuf->resize(static_cast<size_t>(cn));
      cs.key.Eval(f, s, kbuf->data(), ops);
      kv = kbuf->data();
    }
    for (size_t t = 0; t < ev_rows->size(); ++t) {
      const uint32_t row = (*ev_rows)[t];
      const uint32_t begin = (*ev_start)[t];
      const uint32_t end = t + 1 < ev_start->size()
                               ? (*ev_start)[t + 1]
                               : static_cast<uint32_t>(cn);
      bool found = false;
      double best_key = std::numeric_limits<double>::infinity();
      uint32_t win = 0;
      for (uint32_t j = begin; j < end; ++j) {
        if (fv != nullptr && fv[j] == 0.0) continue;
        if (!cs.best) {
          found = true;
          win = j;
          break;  // first passing combination, enumeration order
        }
        const double k = kv[j];
        // Strict < keeps the first minimal combination, like the
        // interpreter's `!found || k < best_key`.
        if (!found || k < best_key) {
          found = true;
          best_key = k;
          win = j;
        }
      }
      if (found) {
        for (const ComboLoop& loop : cs.loops) {
          bc.at(loop.iter_slot, row) = f.iter[loop.iter_slot][win];
        }
        newsel->push_back(row);
      }
    }
    lanes.n = 0;
    ev_rows->clear();
    ev_start->clear();
  };

  int64_t t0 = traced ? obs::NowNs() : 0;
  for (const uint32_t row : *sel) {
    ev_rows->push_back(row);
    ev_start->push_back(static_cast<uint32_t>(lanes.n));
    *ops += EnumerateCombos(plan, row, bc, &lanes);
    if (static_cast<int>(lanes.n) >= kComboChunkLanes) {
      CountEnumeration(traced, t0, lanes.n);
      flush();
      t0 = traced ? obs::NowNs() : 0;
    }
  }
  CountEnumeration(traced, t0, lanes.n);
  flush();
  sel->assign(newsel->begin(), newsel->end());
}

// ---- Stage and fill drivers ------------------------------------------------

void RunConjunctUnit(const Conjunct& c, const BatchBindings& bindings,
                     std::vector<uint32_t>* sel, const RowIters& bc,
                     VexprScratch* s, uint64_t* ops) {
  if (sel->empty()) return;
  VexprScratch::Scope scope(s);
  const Frame f = MakeEventFrame(bindings, *sel, bc, s);
  std::vector<double>* vals = s->AcquireF64();
  vals->resize(sel->size());
  c.scalar.Eval(f, s, vals->data(), ops);
  size_t w = 0;
  for (size_t i = 0; i < sel->size(); ++i) {
    const bool pass = ((*vals)[i] != 0.0) != c.negate;
    if (pass) (*sel)[w++] = (*sel)[i];
  }
  sel->resize(w);
}

void RunInterpUnit(const Expr* e, const BatchBindings& bindings,
                   std::vector<uint32_t>* sel, const RowIters& bc,
                   uint64_t* ops) {
  size_t w = 0;
  for (size_t i = 0; i < sel->size(); ++i) {
    const uint32_t row = (*sel)[i];
    EvalContext ctx;
    ctx.bindings = &bindings;
    ctx.row = row;
    for (int k = 0; k < kMaxIterators; ++k) ctx.iter_index[k] = bc.at(k, row);
    const bool pass = e->EvalBool(&ctx);
    *ops += ctx.ops;
    // Persist bindings a combination search established for this event.
    for (int k = 0; k < kMaxIterators; ++k) bc.at(k, row) = ctx.iter_index[k];
    if (pass) (*sel)[w++] = row;
  }
  sel->resize(w);
}

void RunScalarFill(const CompiledScalar& scalar,
                   const BatchBindings& bindings,
                   const std::vector<uint32_t>& sel,
                   const RowIters& bc, VexprScratch* s, Histogram1D* hist,
                   uint64_t* ops) {
  if (sel.empty()) return;
  VexprScratch::Scope scope(s);
  const Frame f = MakeEventFrame(bindings, sel, bc, s);
  std::vector<double>* vals = s->AcquireF64();
  vals->resize(sel.size());
  scalar.Eval(f, s, vals->data(), ops);
  for (size_t i = 0; i < sel.size(); ++i) hist->Fill((*vals)[i]);
}

void RunElementFill(const CompiledFill& fill, const BatchBindings& bindings,
                    const std::vector<uint32_t>& sel,
                    const RowIters& bc, VexprScratch* s, Histogram1D* hist,
                    uint64_t* ops) {
  if (sel.empty()) return;
  VexprScratch::Scope scope(s);
  const Frame f = MakeEventFrame(bindings, sel, bc, s);
  const ListBinding& list = bindings.list(fill.list_slot);
  std::vector<uint32_t>* cev = s->AcquireU32();
  std::vector<uint32_t>* cit[kMaxIterators];
  for (int k = 0; k < kMaxIterators; ++k) cit[k] = s->AcquireU32();
  for (int L = 0; L < f.n; ++L) {
    const uint32_t e = f.event[L];
    for (uint32_t j = list.begin(e); j < list.end(e); ++j) {
      cev->push_back(e);
      for (int k = 0; k < kMaxIterators; ++k) {
        cit[k]->push_back(k == fill.iter_slot ? j : f.iter[k][L]);
      }
    }
  }
  const int cn = static_cast<int>(cev->size());
  *ops += static_cast<uint64_t>(cn);  // one visit per element, like the
                                      // interpreter's per-element loop
  Frame cf;
  cf.bindings = &bindings;
  cf.n = cn;
  cf.event = cev->data();
  for (int k = 0; k < kMaxIterators; ++k) cf.iter[k] = cit[k]->data();
  std::vector<uint32_t>* live = s->AcquireU32();
  live->resize(static_cast<size_t>(cn));
  for (int j = 0; j < cn; ++j) (*live)[static_cast<size_t>(j)] =
      static_cast<uint32_t>(j);
  if (fill.has_filter) fill.filter.Narrow(cf, s, live, ops);
  const int m = static_cast<int>(live->size());
  if (m == 0) return;
  const Frame vf = m == cn ? cf : GatherFrame(cf, live->data(), m, s);
  std::vector<double>* vals = s->AcquireF64();
  vals->resize(static_cast<size_t>(m));
  fill.value.Eval(vf, s, vals->data(), ops);
  for (int i = 0; i < m; ++i) hist->Fill((*vals)[i]);
}

void RunComboFill(const CompiledFill& fill, const BatchBindings& bindings,
                  const std::vector<uint32_t>& sel,
                  const RowIters& bc, VexprScratch* s, Histogram1D* hist,
                  uint64_t* ops) {
  VexprScratch::Scope scope(s);
  const bool traced = obs::TracingActive();
  const ComboPlan plan(fill.loops, bindings);
  ComboLanes lanes(s);

  const auto flush = [&]() {
    const int cn = static_cast<int>(lanes.n);
    if (cn == 0) return;
    VexprScratch::Scope flush_scope(s);
    const Frame f = lanes.AsFrame(bindings);
    std::vector<uint32_t>* live = s->AcquireU32();
    live->resize(static_cast<size_t>(cn));
    for (int j = 0; j < cn; ++j) (*live)[static_cast<size_t>(j)] =
        static_cast<uint32_t>(j);
    if (fill.has_filter) fill.filter.Narrow(f, s, live, ops);
    const int m = static_cast<int>(live->size());
    if (m > 0) {
      const Frame vf = m == cn ? f : GatherFrame(f, live->data(), m, s);
      std::vector<double>* vals = s->AcquireF64();
      vals->resize(static_cast<size_t>(m));
      fill.value.Eval(vf, s, vals->data(), ops);
      for (int i = 0; i < m; ++i) hist->Fill((*vals)[i]);
    }
    lanes.n = 0;
  };

  int64_t t0 = traced ? obs::NowNs() : 0;
  for (const uint32_t row : sel) {
    *ops += EnumerateCombos(plan, row, bc, &lanes);
    if (static_cast<int>(lanes.n) >= kComboChunkLanes) {
      CountEnumeration(traced, t0, lanes.n);
      flush();
      t0 = traced ? obs::NowNs() : 0;
    }
  }
  CountEnumeration(traced, t0, lanes.n);
  flush();
}

void RunInterpFill(const CompiledQuerySpec::Fill& fill,
                   const BatchBindings& bindings,
                   const std::vector<uint32_t>& sel,
                   const RowIters& bc, Histogram1D* hist, uint64_t* ops) {
  for (const uint32_t row : sel) {
    EvalContext ctx;
    ctx.bindings = &bindings;
    ctx.row = row;
    for (int k = 0; k < kMaxIterators; ++k) ctx.iter_index[k] = bc.at(k, row);
    if (fill.per_combination) {
      const auto recurse = [&](const auto& self, size_t depth) -> void {
        if (depth == fill.loops.size()) {
          ++ctx.ops;
          if (fill.filter != nullptr && !fill.filter->EvalBool(&ctx)) return;
          hist->Fill(fill.value->Eval(&ctx));
          return;
        }
        const ComboLoop& loop = fill.loops[depth];
        const ListBinding& list = bindings.list(loop.list_slot);
        uint32_t begin = list.begin(ctx.row);
        const uint32_t end = list.end(ctx.row);
        for (size_t d = 0; d < depth; ++d) {
          if (fill.loops[d].list_slot == loop.list_slot) {
            begin = std::max(begin,
                             ctx.iter_index[fill.loops[d].iter_slot] + 1);
          }
        }
        for (uint32_t i = begin; i < end; ++i) {
          ctx.iter_index[loop.iter_slot] = i;
          self(self, depth + 1);
        }
      };
      recurse(recurse, 0);
    } else if (fill.per_element) {
      const ListBinding& list = bindings.list(fill.list_slot);
      for (uint32_t i = list.begin(row); i < list.end(row); ++i) {
        ctx.iter_index[fill.iter_slot] = i;
        ++ctx.ops;
        if (fill.filter != nullptr && !fill.filter->EvalBool(&ctx)) continue;
        hist->Fill(fill.value->Eval(&ctx));
      }
    } else {
      hist->Fill(fill.scalar->Eval(&ctx));
    }
    *ops += ctx.ops;
  }
}

}  // namespace

// ---- CompiledEventQuery ----------------------------------------------------

struct CompiledEventQuery::Impl {
  CompiledQuerySpec spec;  // owns the expression trees the units reference
  std::vector<CompiledStage> stages;
  std::vector<CompiledFill> fills;
};

CompiledEventQuery::CompiledEventQuery() = default;
CompiledEventQuery::~CompiledEventQuery() = default;

Result<std::shared_ptr<const CompiledEventQuery>> CompiledEventQuery::Compile(
    CompiledQuerySpec spec) {
  auto query = std::shared_ptr<CompiledEventQuery>(new CompiledEventQuery());
  query->impl_ = std::make_unique<Impl>();
  Impl& impl = *query->impl_;
  impl.spec = std::move(spec);
  impl.stages.reserve(impl.spec.stages.size());
  for (const ExprPtr& stage : impl.spec.stages) {
    impl.stages.push_back(LowerStage(stage.get()));
  }
  impl.fills.reserve(impl.spec.fills.size());
  for (const CompiledQuerySpec::Fill& fill : impl.spec.fills) {
    impl.fills.push_back(LowerFill(fill));
  }
  return std::shared_ptr<const CompiledEventQuery>(std::move(query));
}

Status CompiledEventQuery::ExecuteBatch(const BatchBindings& bindings,
                                        int64_t num_rows,
                                        VexprScratch* scratch,
                                        std::vector<Histogram1D>* histograms,
                                        int64_t* events_selected,
                                        uint64_t* ops) const {
  const Impl& impl = *impl_;
  scratch->ResetAll();
  *ops += static_cast<uint64_t>(num_rows);  // per-event base record access

  // Window by window: each histogram still fills in ascending event order
  // and the counters are integer sums, so the result does not depend on
  // the window size.
  for (int64_t w0 = 0; w0 < num_rows; w0 += kEventWindowRows) {
    const int64_t w1 = std::min(num_rows, w0 + kEventWindowRows);
    const size_t n = static_cast<size_t>(w1 - w0);
    VexprScratch::Scope scope(scratch);
    std::vector<uint32_t>* sel = scratch->AcquireU32();
    sel->resize(n);
    for (size_t i = 0; i < n; ++i) {
      (*sel)[i] = static_cast<uint32_t>(w0) + static_cast<uint32_t>(i);
    }
    RowIters bc;
    bc.base = static_cast<uint32_t>(w0);
    for (int k = 0; k < kMaxIterators; ++k) {
      std::vector<uint32_t>* v = scratch->AcquireU32();
      v->assign(n, 0);
      bc.col[k] = v->data();
    }

    for (const CompiledStage& stage : impl.stages) {
      for (const StageUnit& unit : stage.units) {
        switch (unit.kind) {
          case StageUnit::Kind::kConjunct:
            RunConjunctUnit(unit.conjunct, bindings, sel, bc, scratch, ops);
            break;
          case StageUnit::Kind::kCombo:
            RunComboUnit(unit.combo, bindings, sel, bc, scratch, ops);
            break;
          case StageUnit::Kind::kInterp:
            RunInterpUnit(unit.interp, bindings, sel, bc, ops);
            break;
        }
        if (sel->empty()) break;
      }
    }

    *events_selected += static_cast<int64_t>(sel->size());

    for (size_t fidx = 0; fidx < impl.fills.size(); ++fidx) {
      const CompiledFill& fill = impl.fills[fidx];
      Histogram1D* hist = &(*histograms)[fidx];
      switch (fill.kind) {
        case CompiledFill::Kind::kScalar:
          RunScalarFill(fill.scalar, bindings, *sel, bc, scratch, hist, ops);
          break;
        case CompiledFill::Kind::kElement:
          RunElementFill(fill, bindings, *sel, bc, scratch, hist, ops);
          break;
        case CompiledFill::Kind::kCombo:
          RunComboFill(fill, bindings, *sel, bc, scratch, hist, ops);
          break;
        case CompiledFill::Kind::kInterp:
          RunInterpFill(*fill.src, bindings, *sel, bc, hist, ops);
          break;
      }
    }
  }
  return Status::OK();
}

// ---- CompiledExprKernel ----------------------------------------------------

namespace {

struct KernelImpl {
  ExprPtr root;
  CompiledScalar scalar;
};

}  // namespace

Result<CompiledExprKernel> CompiledExprKernel::Compile(ExprPtr expr) {
  if (expr == nullptr) return Status::Invalid("null expression");
  HEPQ_RETURN_NOT_OK(CheckCallArity(expr.get()));
  auto impl = std::make_shared<KernelImpl>();
  impl->root = std::move(expr);
  if (ContainsCombination(impl->root.get())) {
    // A combination search leaves its winners bound for *sibling* subtrees
    // (the interpreter's contract); per-slot producers cannot see each
    // other's bindings, so the whole tree walks per lane instead.
    ScalarLowerer lowerer;
    impl->scalar = lowerer.LowerAsInterp(impl->root.get());
  } else {
    impl->scalar = LowerScalar(impl->root.get());
  }
  CompiledExprKernel kernel;
  kernel.impl_ = std::shared_ptr<const void>(impl, impl.get());
  return kernel;
}

Status CompiledExprKernel::Eval(const BatchBindings& bindings,
                                int64_t num_rows, VexprScratch* scratch,
                                double* out, uint64_t* ops) const {
  const KernelImpl& impl = *static_cast<const KernelImpl*>(impl_.get());
  scratch->ResetAll();
  VexprScratch::Scope scope(scratch);
  std::vector<uint32_t>* ev = scratch->AcquireU32();
  std::vector<uint32_t>* zero = scratch->AcquireU32();
  ev->resize(static_cast<size_t>(num_rows));
  zero->assign(static_cast<size_t>(num_rows), 0);
  for (int64_t i = 0; i < num_rows; ++i) {
    (*ev)[static_cast<size_t>(i)] = static_cast<uint32_t>(i);
  }
  Frame f;
  f.bindings = &bindings;
  f.n = static_cast<int>(num_rows);
  f.event = ev->data();
  for (int k = 0; k < kMaxIterators; ++k) f.iter[k] = zero->data();
  uint64_t local_ops = 0;
  impl.scalar.Eval(f, scratch, out, &local_ops);
  if (ops != nullptr) *ops += local_ops;
  return Status::OK();
}

Result<int> CompiledExprKernel::Gate(const BatchBindings& bindings,
                                     int64_t num_rows, VexprScratch* scratch,
                                     uint32_t* sel_out, uint64_t* ops) const {
  const KernelImpl& impl = *static_cast<const KernelImpl*>(impl_.get());
  scratch->ResetAll();
  VexprScratch::Scope scope(scratch);
  std::vector<uint32_t>* ev = scratch->AcquireU32();
  std::vector<uint32_t>* zero = scratch->AcquireU32();
  ev->resize(static_cast<size_t>(num_rows));
  zero->assign(static_cast<size_t>(num_rows), 0);
  for (int64_t i = 0; i < num_rows; ++i) {
    (*ev)[static_cast<size_t>(i)] = static_cast<uint32_t>(i);
  }
  Frame f;
  f.bindings = &bindings;
  f.n = static_cast<int>(num_rows);
  f.event = ev->data();
  for (int k = 0; k < kMaxIterators; ++k) f.iter[k] = zero->data();
  uint64_t local_ops = 0;
  const int kept =
      impl.scalar.Gate(f, scratch, /*negate=*/false, sel_out, &local_ops);
  if (ops != nullptr) *ops += local_ops;
  return kept;
}

const VProgram& CompiledExprKernel::program() const {
  return static_cast<const KernelImpl*>(impl_.get())->scalar.program;
}

}  // namespace hepq::engine
