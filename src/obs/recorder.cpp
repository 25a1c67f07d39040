#include "obs/recorder.h"

#include <utility>

#include "obs/trace.h"

namespace smi::obs {
namespace {

const ReliabilityCounters& Reliability(const LinkCounters& l) {
  static const ReliabilityCounters kNone;
  return l.reliability != nullptr ? *l.reliability : kNone;
}

}  // namespace

FifoCounters* Recorder::AddFifo(const std::string& name) {
  FifoCounters& c = fifos_.emplace_back();
  c.name = name;
  return &c;
}

CkCounters* Recorder::AddCk(const std::string& name) {
  CkCounters& c = cks_.emplace_back();
  c.name = name;
  return &c;
}

LinkCounters* Recorder::AddLink(const std::string& name, Cycle latency) {
  LinkCounters& c = links_.emplace_back();
  c.name = name;
  c.latency = latency;
  c.trace = trace_;
  return &c;
}

KernelProbe* Recorder::AddKernel(const std::string& name) {
  KernelProbe& k = kernels_.emplace_back();
  k.name = name;
  k.trace = trace_;
  return &k;
}

void Recorder::SetJournaling(bool on) {
  for (auto& f : fifos_) f.journal.set_active(on);
  for (auto& c : cks_) c.journal.set_active(on);
  for (auto& l : links_) {
    l.rx_journal.set_active(on);
    l.tx_journal.set_active(on);
  }
  for (auto& k : kernels_) k.journal.set_active(on);
}

void Recorder::ClearJournals() {
  for (auto& f : fifos_) f.journal.Clear();
  for (auto& c : cks_) c.journal.Clear();
  for (auto& l : links_) {
    l.rx_journal.Clear();
    l.tx_journal.Clear();
  }
  for (auto& k : kernels_) k.journal.Clear();
}

void Recorder::TrimAtOrAfter(Cycle cycle) {
  for (auto& f : fifos_) f.journal.TrimAtOrAfter(cycle);
  for (auto& c : cks_) c.journal.TrimAtOrAfter(cycle);
  for (auto& l : links_) {
    l.rx_journal.TrimAtOrAfter(cycle);
    l.tx_journal.TrimAtOrAfter(cycle);
    l.TrimTraceAtOrAfter(cycle);
  }
  for (auto& k : kernels_) {
    k.journal.TrimAtOrAfter(cycle);
    k.TrimTraceAtOrAfter(cycle);
  }
}

void Recorder::Finalize(Cycle total_cycles) {
  total_cycles_ = total_cycles;
  for (auto& f : fifos_) f.Finalize(total_cycles);
  for (auto& c : cks_) c.Finalize(total_cycles);
  for (auto& l : links_) l.Finalize(total_cycles);
  for (auto& k : kernels_) k.Finalize(total_cycles);
}

void Recorder::Annotate(const std::string& key, json::Value value) {
  annotations_[key] = std::move(value);
}

json::Value Recorder::CountersJson() const {
  json::Array fifos;
  for (const auto& f : fifos_) {
    json::Object row;
    row["name"] = json::Value(f.name);
    row["pushes"] = json::Value(f.pushes);
    row["pops"] = json::Value(f.pops);
    row["high_water"] = json::Value(f.high_water);
    row["full_stall_cycles"] = json::Value(f.full_stall_cycles);
    row["empty_cycles"] = json::Value(f.empty_cycles);
    fifos.push_back(json::Value(std::move(row)));
  }

  json::Array cks;
  for (const auto& c : cks_) {
    json::Object fwd;
    fwd["data"] = json::Value(c.forwarded_by_op[0]);
    fwd["sync"] = json::Value(c.forwarded_by_op[1]);
    fwd["credit"] = json::Value(c.forwarded_by_op[2]);
    json::Object row;
    row["name"] = json::Value(c.name);
    row["forwarded"] = json::Value(std::move(fwd));
    row["polls"] = json::Value(c.polls);
    row["hits"] = json::Value(c.hits);
    row["bursts"] = json::Value(c.bursts);
    row["stalls"] = json::Value(c.stalls);
    if (c.handler_combined != 0 || c.handler_splits != 0 ||
        c.handler_filtered != 0) {
      json::Object h;
      h["combined"] = json::Value(c.handler_combined);
      h["splits"] = json::Value(c.handler_splits);
      h["filtered"] = json::Value(c.handler_filtered);
      row["handler"] = json::Value(std::move(h));
    }
    cks.push_back(json::Value(std::move(row)));
  }

  json::Array links;
  for (const auto& l : links_) {
    json::Object row;
    row["name"] = json::Value(l.name);
    row["latency"] = json::Value(static_cast<std::int64_t>(l.latency));
    row["busy_cycles"] = json::Value(l.busy_cycles);
    row["credit_stall_cycles"] = json::Value(l.credit_stall_cycles);
    const ReliabilityCounters& r = Reliability(l);
    row["retransmits"] = json::Value(r.retransmits);
    row["timeouts"] = json::Value(r.timeouts);
    row["wire_drops"] = json::Value(r.wire_drops);
    row["wire_corruptions"] = json::Value(r.wire_corruptions);
    row["checksum_failures"] = json::Value(r.checksum_failures);
    row["seq_discards"] = json::Value(r.seq_discards);
    if (l.fidelity != nullptr) {
      const FidelityCounters& f = *l.fidelity;
      json::Object fid;
      fid["stepped_cycles"] = json::Value(f.stepped_cycles);
      fid["modeled_cycles"] = json::Value(f.modeled_cycles);
      fid["modeled_fraction"] = json::Value(f.modeled_fraction());
      fid["promotions"] = json::Value(f.promotions);
      fid["thrash_warnings"] = json::Value(f.thrash_warnings);
      json::Object dem;
      dem["congestion"] = json::Value(f.demotions_congestion);
      dem["drain"] = json::Value(f.demotions_drain);
      dem["sync"] = json::Value(f.demotions_sync);
      dem["forced"] = json::Value(f.demotions_forced);
      fid["demotions"] = json::Value(std::move(dem));
      row["fidelity"] = json::Value(std::move(fid));
    }
    links.push_back(json::Value(std::move(row)));
  }

  json::Array kernels;
  for (const auto& k : kernels_) {
    // A kernel that ran to the end of the run lives for all total_cycles_;
    // otherwise it lives up to and including its finish cycle.
    const std::uint64_t lifetime =
        k.done_cycle_p1 != 0 ? k.done_cycle_p1 : total_cycles_;
    json::Object row;
    row["name"] = json::Value(k.name);
    row["active_cycles"] = json::Value(k.resumes);
    row["blocked_cycles"] =
        json::Value(lifetime >= k.resumes ? lifetime - k.resumes : 0);
    row["lifetime_cycles"] = json::Value(lifetime);
    kernels.push_back(json::Value(std::move(row)));
  }

  json::Object doc;
  doc["total_cycles"] = json::Value(static_cast<std::int64_t>(total_cycles_));
  doc["fifos"] = json::Value(std::move(fifos));
  doc["cks"] = json::Value(std::move(cks));
  doc["links"] = json::Value(std::move(links));
  doc["kernels"] = json::Value(std::move(kernels));
  if (!annotations_.empty()) doc["annotations"] = json::Value(annotations_);
  return json::Value(std::move(doc));
}

json::Value Recorder::SummaryJson() const {
  std::uint64_t fifo_pushes = 0, fifo_full = 0, fifo_hw = 0;
  for (const auto& f : fifos_) {
    fifo_pushes += f.pushes;
    fifo_full += f.full_stall_cycles;
    if (f.high_water > fifo_hw) fifo_hw = f.high_water;
  }
  std::uint64_t fwd[3] = {0, 0, 0};
  std::uint64_t polls = 0, hits = 0, ck_stalls = 0;
  std::uint64_t combined = 0, splits = 0, filtered = 0;
  for (const auto& c : cks_) {
    for (int op = 0; op < 3; ++op) fwd[op] += c.forwarded_by_op[op];
    polls += c.polls;
    hits += c.hits;
    ck_stalls += c.stalls;
    combined += c.handler_combined;
    splits += c.handler_splits;
    filtered += c.handler_filtered;
  }
  std::uint64_t busy = 0, credit_stalls = 0;
  std::uint64_t retransmits = 0, checksum_failures = 0;
  for (const auto& l : links_) {
    busy += l.busy_cycles;
    credit_stalls += l.credit_stall_cycles;
    retransmits += Reliability(l).retransmits;
    checksum_failures += Reliability(l).checksum_failures;
  }
  std::uint64_t active = 0;
  for (const auto& k : kernels_) active += k.resumes;

  json::Object fwd_obj;
  fwd_obj["data"] = json::Value(fwd[0]);
  fwd_obj["sync"] = json::Value(fwd[1]);
  fwd_obj["credit"] = json::Value(fwd[2]);

  json::Object doc;
  doc["total_cycles"] = json::Value(static_cast<std::int64_t>(total_cycles_));
  doc["fifo_pushes"] = json::Value(fifo_pushes);
  doc["fifo_full_stall_cycles"] = json::Value(fifo_full);
  doc["fifo_high_water"] = json::Value(fifo_hw);
  doc["ck_forwarded"] = json::Value(std::move(fwd_obj));
  doc["ck_polls"] = json::Value(polls);
  doc["ck_hits"] = json::Value(hits);
  doc["ck_stalls"] = json::Value(ck_stalls);
  doc["ck_handler_combined"] = json::Value(combined);
  doc["ck_handler_splits"] = json::Value(splits);
  doc["ck_handler_filtered"] = json::Value(filtered);
  doc["link_busy_cycles"] = json::Value(busy);
  doc["link_credit_stall_cycles"] = json::Value(credit_stalls);
  doc["link_retransmits"] = json::Value(retransmits);
  doc["link_checksum_failures"] = json::Value(checksum_failures);
  doc["kernel_active_cycles"] = json::Value(active);
  if (!annotations_.empty()) doc["annotations"] = json::Value(annotations_);
  return json::Value(std::move(doc));
}

json::Value Recorder::TraceJson() const { return ChromeTrace(kernels_, links_); }

}  // namespace smi::obs
