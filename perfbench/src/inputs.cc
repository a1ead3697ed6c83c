#include "inputs.h"

#include <algorithm>
#include <cstdio>
#include <unordered_set>

namespace perfbench {

Schema BenchSchema() {
  std::vector<decibel::Column> cols = {
      {"pk", decibel::FieldType::kInt64, 8},
      {"grp", decibel::FieldType::kInt32, 4},
      {"val", decibel::FieldType::kInt64, 8},
      {"ver", decibel::FieldType::kInt32, 4},
  };
  for (int i = 0; i < kPads; ++i) {
    cols.push_back({"p" + std::to_string(i), decibel::FieldType::kInt32, 4});
  }
  cols.push_back({"sum", decibel::FieldType::kInt64, 8});
  return *Schema::Make(std::move(cols));
}

Record MakeRow(const Schema* schema, int64_t pk, uint32_t ver) {
  Record r(schema);
  int32_t pads[kPads];
  for (int i = 0; i < kPads; ++i) pads[i] = PadOf(ver, i);
  const int32_t grp = GrpOf(pk);
  const int64_t val = ValOf(ver);
  r.SetPk(pk);
  r.SetInt32(kGrp, grp);
  r.SetInt64(kVal, val);
  r.SetInt32(kVer, static_cast<int32_t>(ver));
  for (int i = 0; i < kPads; ++i) r.SetInt32(kPad0 + i, pads[i]);
  r.SetInt64(kSum, ChecksumOf(pk, grp, val, static_cast<int32_t>(ver), pads));
  return r;
}

bool RowIsConsistent(const RecordRef& row) {
  int32_t pads[kPads];
  for (int i = 0; i < kPads; ++i) pads[i] = row.GetInt32(kPad0 + i);
  const int64_t pk = row.pk();
  const int32_t grp = row.GetInt32(kGrp);
  return grp == GrpOf(pk) &&
         row.GetInt64(kSum) == ChecksumOf(pk, grp, row.GetInt64(kVal),
                                          row.GetInt32(kVer), pads);
}

std::string SetAgg::ToString() const {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "{rows %llu, pk_sum %llu, fp %016llx}",
                static_cast<unsigned long long>(count),
                static_cast<unsigned long long>(pk_sum),
                static_cast<unsigned long long>(fp_sum));
  return buf;
}

// ----------------------------------------------------------------- model

int Model::AddRoot(const std::string& name) {
  branches_.emplace_back();
  branches_.back().name = name;
  return static_cast<int>(branches_.size()) - 1;
}

int Model::Fork(int parent, const std::string& name) {
  ModelBranch child;
  child.name = name;
  child.parent = parent;
  child.ver = branches_[parent].ver;
  child.base = child.ver;
  branches_.push_back(std::move(child));
  return static_cast<int>(branches_.size()) - 1;
}

void Model::Merge(int into, int from) {
  ModelBranch& l = branches_[into];
  const ModelBranch& r = branches_[from];
  for (int64_t pk = 0; pk < pk_limit_; ++pk) {
    const uint32_t b =
        static_cast<size_t>(pk) < r.base.size() ? r.base[pk] : 0;
    const uint32_t rv = r.At(pk);
    if (rv == b) continue;           // only 'into' moved, or neither
    if (l.At(pk) == b) l.Set(pk, rv);  // only 'from' moved
    // both moved: 'into' wins
  }
}

SetAgg Model::Select(int b, int32_t grp_lo, int32_t grp_hi) const {
  SetAgg agg;
  const ModelBranch& br = branches_[b];
  for (size_t pk = 0; pk < br.ver.size(); ++pk) {
    const int32_t g = GrpOf(static_cast<int64_t>(pk));
    if (br.ver[pk] != 0 && g >= grp_lo && g < grp_hi) {
      agg.Add(static_cast<int64_t>(pk), br.ver[pk]);
    }
  }
  return agg;
}

SetAgg Model::DiffByKey(int a, int b) const {
  SetAgg agg;
  const ModelBranch& ba = branches_[a];
  const ModelBranch& bb = branches_[b];
  for (size_t pk = 0; pk < ba.ver.size(); ++pk) {
    if (ba.ver[pk] != 0 && bb.At(static_cast<int64_t>(pk)) == 0) {
      agg.Add(static_cast<int64_t>(pk), ba.ver[pk]);
    }
  }
  return agg;
}

void Model::Join(int a, int b, int32_t grp_lo, int32_t grp_hi, SetAgg* left,
                 SetAgg* right) const {
  const ModelBranch& ba = branches_[a];
  const ModelBranch& bb = branches_[b];
  for (size_t pk = 0; pk < ba.ver.size(); ++pk) {
    const int64_t k = static_cast<int64_t>(pk);
    const int32_t g = GrpOf(k);
    if (ba.ver[pk] != 0 && bb.At(k) != 0 && g >= grp_lo && g < grp_hi) {
      left->Add(k, ba.ver[pk]);
      right->Add(k, bb.At(k));
    }
  }
}

// ----------------------------------------------------------------- sizes

Sizes Sizes::Small() {
  Sizes s;
  s.agentic_base_rows = 1024;
  s.cycles_per_agent = 6;
  s.curation_base_rows = 4000;
  s.curation_ops = 6000;
  s.curation_commit_every = 100;
  s.curation_step_ops = 100;
  s.curation_event_every = 400;
  s.science_ops = 12000;
  s.science_commit_every = 500;
  s.read_rounds = 2;
  s.gets_per_round = 32;
  return s;
}

// --------------------------------------------------------------- agentic

AgenticPlan MakeAgenticPlan(const Sizes& sizes, uint64_t seed, int tag) {
  AgenticPlan plan;
  const int agents = sizes.agents;
  const int64_t base = sizes.agentic_base_rows;
  plan.base_rows = base;
  plan.select_grps = sizes.select_grps;
  const int64_t select_rows =
      std::min<int64_t>(base, sizes.select_grps * kRowsPerGrp);
  for (int64_t pk = 0; pk < select_rows; ++pk) plan.select_keys.Add(pk, 0);

  // Base table: pk -> ver pk + 1. own[pk] tracks master's version of each
  // base key; each key is only ever written by the agent owning it.
  std::vector<uint32_t> master(base);
  for (int64_t pk = 0; pk < base; ++pk) master[pk] = static_cast<uint32_t>(pk + 1);
  std::vector<std::pair<int64_t, uint32_t>> merged_inserts;

  plan.agents.resize(agents);
  for (int a = 0; a < agents; ++a) {
    Rng rng(seed * 1000003ULL + static_cast<uint64_t>(tag * agents + a));
    const uint32_t lane = static_cast<uint32_t>(tag * agents + a);
    uint32_t next_ver = static_cast<uint32_t>(base + 1) + (lane << 20);
    int64_t next_pk = base + static_cast<int64_t>(lane) * sizes.cycles_per_agent *
                                 sizes.inserts_per_cycle;
    const int64_t slice_rows = (base - a + agents - 1) / agents;
    for (int c = 0; c < sizes.cycles_per_agent; ++c) {
      AgenticCycle cycle;
      cycle.name = "t" + std::to_string(tag) + "a" + std::to_string(a) + "c" +
                   std::to_string(c);
      for (int64_t pk = a; pk < select_rows; pk += agents) {
        cycle.select_own.Add(pk, master[pk]);
      }
      for (int i = 0; i < sizes.inserts_per_cycle; ++i) {
        cycle.inserts.emplace_back(next_pk++, next_ver++);
      }
      std::unordered_set<int64_t> picked;
      while (static_cast<int>(cycle.updates.size()) < sizes.updates_per_cycle &&
             static_cast<int64_t>(picked.size()) < slice_rows) {
        const int64_t pk =
            a + static_cast<int64_t>(rng.Uniform(slice_rows)) * agents;
        if (!picked.insert(pk).second) continue;
        cycle.updates.emplace_back(pk, next_ver++);
      }
      // Three of four cycles land on master; which ones depends on the
      // agent so the two agents' merges interleave.
      cycle.merge = (a + c) % 4 != 0;
      if (cycle.merge) {
        for (const auto& [pk, ver] : cycle.updates) master[pk] = ver;
        merged_inserts.insert(merged_inserts.end(), cycle.inserts.begin(),
                              cycle.inserts.end());
      }
      plan.agents[a].push_back(std::move(cycle));
    }
  }
  for (int64_t pk = 0; pk < base; ++pk) plan.final_master.Add(pk, master[pk]);
  for (const auto& [pk, ver] : merged_inserts) plan.final_master.Add(pk, ver);
  return plan;
}

// ------------------------------------------------------- branched loads

namespace {

/// Picks a live pk of \p b by rejection sampling; -1 when none is found.
int64_t PickLive(const Model& model, int b, Rng* rng) {
  const ModelBranch& br = model.branch(b);
  if (br.ver.empty()) return -1;
  for (int tries = 0; tries < 64; ++tries) {
    const int64_t pk = static_cast<int64_t>(rng->Uniform(br.ver.size()));
    if (br.ver[pk] != 0) return pk;
  }
  return -1;
}

struct Writer {
  Model* model;
  std::vector<Op>* out;
  uint32_t next_ver = 1;
  int64_t next_pk = 0;

  void Insert(int b) {
    const int64_t pk = next_pk++;
    const uint32_t ver = next_ver++;
    model->NotePk(pk);
    model->branch(b).Set(pk, ver);
    out->push_back({OpKind::kInsert, b, 0, pk, ver});
  }
  void Update(int b, int64_t pk) {
    const uint32_t ver = next_ver++;
    model->branch(b).Set(pk, ver);
    out->push_back({OpKind::kUpdate, b, 0, pk, ver});
  }
  void Delete(int b, int64_t pk) {
    model->branch(b).Set(pk, 0);
    out->push_back({OpKind::kDelete, b, 0, pk, 0});
  }
  int Fork(int parent, const std::string& name) {
    const int child = model->Fork(parent, name);
    out->push_back({OpKind::kBranch, child, parent, 0, 0});
    return child;
  }
  void Merge(int into, int from) {
    model->Merge(into, from);
    out->push_back({OpKind::kMerge, into, from, 0, 0});
  }
  void Retire(int b) {
    model->branch(b).live = false;
    out->push_back({OpKind::kRetire, b, 0, 0, 0});
  }
  void Commit(int b) { out->push_back({OpKind::kCommit, b, 0, 0, 0}); }
};

}  // namespace

BranchedPlan MakeCurationPlan(const Sizes& sizes, uint64_t seed) {
  BranchedPlan plan;
  Rng rng(seed * 7919ULL + 1);
  const int master = plan.model.AddRoot("master");
  Writer w{&plan.model, &plan.setup};
  for (int64_t i = 0; i < sizes.curation_base_rows; ++i) w.Insert(master);
  w.Commit(master);

  w.out = &plan.timed;
  struct Live {
    int index;
    bool dev;
    uint64_t ends_at;  ///< op count at which the branch lands
    uint64_t ops = 0;  ///< ops since its last commit
  };
  std::vector<Live> live = {{master, true, UINT64_MAX}};
  const uint64_t every = sizes.curation_event_every;
  int events = 0;
  int named = 0;
  auto land = [&](size_t i) {
    // A development branch lands its own feature branches first.
    const int idx = live[i].index;
    for (size_t j = live.size(); j-- > 0;) {
      if (j != i && plan.model.branch(live[j].index).parent == idx) {
        w.Merge(idx, live[j].index);
        w.Retire(live[j].index);
        live.erase(live.begin() + static_cast<long>(j));
        if (j < i) --i;
      }
    }
    w.Merge(plan.model.branch(idx).parent, idx);
    w.Retire(idx);
    live.erase(live.begin() + static_cast<long>(i));
  };

  for (uint64_t op = 0; op < sizes.curation_ops; ++op) {
    if (op % every == 0 && op > 0) {
      for (size_t i = live.size(); i-- > 1;) {
        if (i < live.size() && live[i].ends_at <= op) land(i);
      }
      std::vector<size_t> devs;
      for (size_t i = 1; i < live.size(); ++i) {
        if (live[i].dev) devs.push_back(i);
      }
      // The branch structure is fixed; the seed drives the operations.
      // Every third event opens a development branch that lives five
      // events; the others open a feature/fix branch off the newest
      // development branch that lives one or two.
      const std::string name = "b" + std::to_string(named++);
      if (events % 3 == 0 || devs.empty()) {
        live.push_back(
            {w.Fork(master, "dev_" + name), true, op + every * 5});
      } else {
        live.push_back({w.Fork(live[devs.back()].index, "feat_" + name),
                        false, op + every * (1 + events % 2)});
      }
      ++events;
    }
    // The mainline takes a double share of the operations.
    size_t pick = rng.Uniform(live.size() + 1);
    if (pick >= live.size()) pick = 0;
    Live& head = live[pick];
    const uint64_t kind = rng.Uniform(100);
    const int64_t victim = kind < 60 ? -1 : PickLive(plan.model, head.index, &rng);
    if (victim < 0) {
      w.Insert(head.index);
    } else if (kind < 95) {
      w.Update(head.index, victim);
    } else {
      w.Delete(head.index, victim);
    }
    ++plan.timed_writes;
    if (++head.ops == sizes.curation_commit_every) {
      w.Commit(head.index);
      head.ops = 0;
    }
    if ((op + 1) % sizes.curation_step_ops == 0) {
      plan.timed.push_back({OpKind::kStepEnd, 0, 0, 0, 0});
    }
  }
  return plan;
}

BranchedPlan MakeSciencePlan(const Sizes& sizes, uint64_t seed) {
  constexpr int kLifetime = 3;
  constexpr uint64_t kChunk = 256;  // ops per branch visit (one batch)
  BranchedPlan plan;
  Rng rng(seed * 104729ULL + 2);
  const int mainline = plan.model.AddRoot("master");
  Writer w{&plan.model, &plan.setup};
  std::vector<int> working;  // creation order
  std::vector<uint64_t> since_commit = {0};
  const uint64_t per_branch =
      static_cast<uint64_t>(sizes.science_ops) / sizes.science_branches;
  uint64_t done = 0;
  uint64_t next_fork = per_branch;
  while (done < static_cast<uint64_t>(sizes.science_ops)) {
    if (done >= next_fork &&
        static_cast<int>(working.size()) + 1 < sizes.science_branches) {
      next_fork += per_branch;
      // Fixed shape: odd-numbered branches fork the mainline, even ones
      // the newest working branch.
      const int parent = working.size() % 2 == 0 ? mainline : working.back();
      working.push_back(
          w.Fork(parent, "sci" + std::to_string(working.size())));
      since_commit.push_back(0);
    }
    // Writable: the mainline (double weight) and the kLifetime newest.
    const size_t active = std::min<size_t>(working.size(), kLifetime);
    const size_t pick = rng.Uniform(active + 2);
    const int b =
        pick < 2 ? mainline : working[working.size() - active + (pick - 2)];
    for (uint64_t i = 0; i < kChunk; ++i) {
      const int64_t victim = rng.Percent(20) ? PickLive(plan.model, b, &rng) : -1;
      if (victim < 0) {
        w.Insert(b);
      } else {
        w.Update(b, victim);
      }
      if (++since_commit[b] == sizes.science_commit_every) {
        w.Commit(b);
        since_commit[b] = 0;
      }
    }
    done += kChunk;
  }
  for (size_t b = 0; b < plan.model.size(); ++b) w.Commit(static_cast<int>(b));
  return plan;
}

// ----------------------------------------------------------------- reads

const char* ReadKindName(ReadKind kind) {
  switch (kind) {
    case ReadKind::kScanFull:
      return "q1_full";
    case ReadKind::kScanFilter:
      return "q1_filter";
    case ReadKind::kDiff:
      return "q2_diff";
    case ReadKind::kJoin:
      return "q3_join";
    case ReadKind::kHeads:
      return "q4_heads";
    case ReadKind::kGets:
      return "get";
  }
  return "?";
}

std::vector<std::vector<ReadOp>> MakeReadRounds(const Sizes& sizes,
                                                const Model& model,
                                                uint64_t seed) {
  Rng rng(seed * 15485863ULL + 3);
  const int nb = static_cast<int>(model.size());
  const int64_t limit = model.pk_limit();
  const int32_t grps = GrpOf(limit - 1) + 1;
  auto range = [&](int32_t width, ReadOp* op) {
    width = std::max<int32_t>(1, width);
    op->grp_lo = static_cast<int32_t>(rng.Uniform(std::max(1, grps - width)));
    op->grp_hi = op->grp_lo + width;
  };
  // Every round reads the same branches, so that rounds cost alike and
  // seeds move only keys and ranges: the newest working branch and the
  // mainline it descends from.
  const int newest = nb - 1;
  const int mainline = 0;
  auto pair = [&](ReadOp* op) {
    op->a = newest;
    op->b = mainline;
  };
  std::vector<SetAgg> heads;
  std::vector<std::vector<ReadOp>> rounds(sizes.read_rounds);
  for (auto& round : rounds) {
    for (int k = 0; k < kNumReadKinds; ++k) {
      ReadOp op;
      op.kind = static_cast<ReadKind>(k);
      switch (op.kind) {
        case ReadKind::kScanFull:
          op.a = newest;
          op.expect = model.All(op.a);
          break;
        case ReadKind::kScanFilter:  // ~1% of the key space
          op.a = mainline;
          range(grps / 100, &op);
          op.expect = model.Select(op.a, op.grp_lo, op.grp_hi);
          break;
        case ReadKind::kDiff:
          pair(&op);
          op.expect = model.DiffByKey(op.a, op.b);
          break;
        case ReadKind::kJoin:  // ~5% of the key space on the left side
          pair(&op);
          range(grps / 20, &op);
          model.Join(op.a, op.b, op.grp_lo, op.grp_hi, &op.expect,
                     &op.expect_right);
          break;
        case ReadKind::kHeads:
          if (heads.empty()) {
            for (int b = 0; b < nb; ++b) {
              heads.push_back(model.branch(b).live ? model.All(b) : SetAgg());
            }
          }
          op.expect_heads = heads;
          break;
        case ReadKind::kGets: {
          // Recent writes are favoured: nine in ten keys come from the
          // newest tenth of the key space, so the hot set fits the buffer
          // pool and the rest misses it.
          op.a = mainline;
          const int64_t hot = std::max<int64_t>(1, limit / 10);
          for (int i = 0; i < sizes.gets_per_round; ++i) {
            const int64_t pk =
                rng.Percent(90)
                    ? limit - 1 - static_cast<int64_t>(rng.Uniform(hot))
                    : static_cast<int64_t>(rng.Uniform(limit));
            op.keys.push_back(pk);
            op.key_vers.push_back(model.branch(op.a).At(pk));
          }
          break;
        }
      }
      round.push_back(std::move(op));
    }
  }
  return rounds;
}

}  // namespace perfbench
