#include "obs/span.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <set>

namespace rdcn::obs {

namespace detail {

std::atomic<bool> g_tracing{false};

struct TraceNode {
  const char* name = "";
  TraceNode* parent = nullptr;
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> total_ns{0};
  // Mutated only by the owning thread, and only under g_trace_mu (so
  // collectors iterating under the same mutex never race a push_back).
  std::vector<TraceNode*> children;
};

namespace {

std::mutex& trace_mu() {
  static std::mutex mu;
  return mu;
}

struct ThreadTrace {
  TraceNode root;
  TraceNode* current = &root;
};

/// All threads' trees.  ThreadTrace objects are heap-allocated and
/// never freed (bounded by thread count), so collect_phases() stays
/// safe after a recording thread has exited.  The container itself is
/// leaked too: a by-value static would be destroyed before
/// LeakSanitizer's exit check, orphaning the intentionally-immortal
/// nodes into "leak" reports.
std::vector<ThreadTrace*>& all_traces() {
  static auto* traces = new std::vector<ThreadTrace*>();
  return *traces;
}

ThreadTrace& this_thread_trace() {
  thread_local ThreadTrace* mine = [] {
    auto* t = new ThreadTrace();
    const std::lock_guard<std::mutex> lock(trace_mu());
    all_traces().push_back(t);
    return t;
  }();
  return *mine;
}

/// The child of `parent` named `name`, created on first use.  `parent`
/// must belong to the calling thread's tree.
TraceNode* child_of(TraceNode* parent, const char* name) {
  // Owner-only read of children; concurrent collectors don't mutate.
  for (TraceNode* child : parent->children)
    if (child->name == name || std::strcmp(child->name, name) == 0)
      return child;
  auto* node = new TraceNode();
  node->name = name;
  node->parent = parent;
  const std::lock_guard<std::mutex> lock(trace_mu());
  parent->children.push_back(node);
  return node;
}

/// The node of `trace` at the same name path as `foreign`, a node of any
/// thread's tree (its name and parent never change after creation).
TraceNode* mirror(ThreadTrace& trace, const TraceNode* foreign) {
  if (foreign->parent == nullptr) return &trace.root;
  return child_of(mirror(trace, foreign->parent), foreign->name);
}

}  // namespace

TraceNode* span_enter(const char* name) {
  ThreadTrace& trace = this_thread_trace();
  trace.current = child_of(trace.current, name);
  return trace.current;
}

void span_exit(TraceNode* node, std::uint64_t elapsed_ns) {
  node->count.fetch_add(1, std::memory_order_relaxed);
  node->total_ns.fetch_add(elapsed_ns, std::memory_order_relaxed);
  this_thread_trace().current = node->parent;
}

}  // namespace detail

void set_tracing(bool on) {
  detail::g_tracing.store(on, std::memory_order_relaxed);
}

const detail::TraceNode* current_span() {
  return tracing_enabled() ? detail::this_thread_trace().current : nullptr;
}

ScopedSpanParent::ScopedSpanParent(const detail::TraceNode* parent) {
  if (parent == nullptr) return;
  detail::ThreadTrace& trace = detail::this_thread_trace();
  saved_ = trace.current;
  trace.current = detail::mirror(trace, parent);
}

ScopedSpanParent::~ScopedSpanParent() {
  if (saved_ != nullptr) detail::this_thread_trace().current = saved_;
}

const char* intern_span_name(const std::string& name) {
  // Leaked like the trace nodes that will point into it (and for the
  // same LeakSanitizer reason); std::set node stability makes the
  // returned c_str() immortal.
  static auto* names = new std::set<std::string>();
  static std::mutex mu;
  const std::lock_guard<std::mutex> lock(mu);
  return names->insert(name).first->c_str();
}

namespace {

/// Aggregate of one name path across all threads.
struct MergedNode {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::map<std::string, std::unique_ptr<MergedNode>> children;
};

void merge_into(MergedNode& dst, const detail::TraceNode& src) {
  dst.count += src.count.load(std::memory_order_relaxed);
  dst.total_ns += src.total_ns.load(std::memory_order_relaxed);
  for (const detail::TraceNode* child : src.children) {
    auto& slot = dst.children[child->name];
    if (!slot) {
      slot = std::make_unique<MergedNode>();
      slot->name = child->name;
    }
    merge_into(*slot, *child);
  }
}

/// Merges every thread's tree into one root.  Caller holds no lock.
std::unique_ptr<MergedNode> merge_all() {
  auto root = std::make_unique<MergedNode>();
  const std::lock_guard<std::mutex> lock(detail::trace_mu());
  for (const detail::ThreadTrace* trace : detail::all_traces())
    merge_into(*root, trace->root);
  return root;
}

void flatten(const MergedNode& node, const std::string& prefix, int depth,
             std::vector<PhaseTotal>& out) {
  for (const auto& [name, child] : node.children) {
    PhaseTotal row;
    row.name = name;
    row.path = prefix.empty() ? name : prefix + "/" + name;
    row.depth = depth;
    row.count = child->count;
    row.total_ns = child->total_ns;
    // Keep a copy: recursing grows `out`, which may reallocate and would
    // invalidate a reference into it.
    const std::string path = row.path;
    out.push_back(std::move(row));
    flatten(*child, path, depth + 1, out);
  }
}

void reset_node(detail::TraceNode& node) {
  node.count.store(0, std::memory_order_relaxed);
  node.total_ns.store(0, std::memory_order_relaxed);
  for (detail::TraceNode* child : node.children) reset_node(*child);
}

void json_node(const MergedNode& node, std::string& out) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", node.total_ns * 1e-9);
  out += "{\"name\":\"" + node.name + "\"";
  out += ",\"count\":" + std::to_string(node.count);
  out += ",\"total_seconds\":";
  out += buf;
  if (!node.children.empty()) {
    out += ",\"children\":[";
    bool first = true;
    for (const auto& [name, child] : node.children) {
      if (!first) out += ",";
      first = false;
      json_node(*child, out);
    }
    out += "]";
  }
  out += "}";
}

}  // namespace

std::vector<PhaseTotal> collect_phases() {
  std::vector<PhaseTotal> out;
  flatten(*merge_all(), "", 0, out);
  return out;
}

std::uint64_t phase_total_ns(const std::vector<PhaseTotal>& phases,
                             const std::string& name) {
  std::uint64_t sum = 0;
  for (const PhaseTotal& phase : phases)
    if (phase.name == name) sum += phase.total_ns;
  return sum;
}

void reset_traces() {
  const std::lock_guard<std::mutex> lock(detail::trace_mu());
  for (detail::ThreadTrace* trace : detail::all_traces())
    reset_node(trace->root);
}

std::string trace_json() {
  auto root = merge_all();
  std::string out = "[";
  bool first = true;
  for (const auto& [name, child] : root->children) {
    if (!first) out += ",";
    first = false;
    json_node(*child, out);
  }
  out += "]";
  return out;
}

void write_profile_report(std::ostream& out) {
  auto root = merge_all();
  // Recursive text render: seconds, calls, % of parent.
  struct Renderer {
    std::ostream& out;
    void walk(const MergedNode& node, int depth,
              std::uint64_t parent_ns) const {
      for (const auto& [name, child] : node.children) {
        const double pct =
            parent_ns == 0
                ? 100.0
                : 100.0 * static_cast<double>(child->total_ns) /
                      static_cast<double>(parent_ns);
        char line[256];
        std::snprintf(line, sizeof(line), "%*s%-*s %10.6f s  x%-8llu %5.1f%%",
                      2 * depth, "",
                      std::max(1, 34 - 2 * depth), name.c_str(),
                      child->total_ns * 1e-9,
                      static_cast<unsigned long long>(child->count), pct);
        out << line << "\n";
        walk(*child, depth + 1, child->total_ns);
      }
    }
  };
  out << "phase                                   total        calls  of parent\n";
  Renderer{out}.walk(*root, 0, 0);
}

}  // namespace rdcn::obs
