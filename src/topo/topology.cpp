#include "topo/topology.h"

#include <algorithm>
#include <functional>
#include <sstream>
#include <thread>

#include "support/assert.h"
#include "topo/binding.h"
#include "topo/sysfs.h"

namespace orwl::topo {

std::string to_string(ObjType t) {
  switch (t) {
    case ObjType::Machine: return "machine";
    case ObjType::Group: return "group";
    case ObjType::Package: return "pack";
    case ObjType::NUMANode: return "numa";
    case ObjType::L3: return "l3";
    case ObjType::L2: return "l2";
    case ObjType::Core: return "core";
    case ObjType::PU: return "pu";
  }
  return "?";
}

ObjType parse_obj_type(const std::string& name) {
  if (name == "machine") return ObjType::Machine;
  if (name == "group") return ObjType::Group;
  if (name == "pack" || name == "package" || name == "socket")
    return ObjType::Package;
  if (name == "numa" || name == "numanode") return ObjType::NUMANode;
  if (name == "l3") return ObjType::L3;
  if (name == "l2") return ObjType::L2;
  if (name == "core") return ObjType::Core;
  if (name == "pu" || name == "thread" || name == "hwthread")
    return ObjType::PU;
  ORWL_CHECK_MSG(false, "unknown topology object type '" << name << "'");
  return ObjType::PU;  // unreachable
}

Topology Topology::synthetic(const std::string& spec) {
  // Parse "type:count" terms.
  std::vector<std::pair<ObjType, int>> terms;
  std::istringstream is(spec);
  std::string term;
  while (is >> term) {
    const auto colon = term.find(':');
    ORWL_CHECK_MSG(colon != std::string::npos,
                   "synthetic term '" << term << "' lacks ':count'");
    const ObjType type = parse_obj_type(term.substr(0, colon));
    ORWL_CHECK_MSG(type != ObjType::Machine,
                   "'machine' is implicit in synthetic specs");
    int count = 0;
    try {
      count = std::stoi(term.substr(colon + 1));
    } catch (const std::exception&) {
      ORWL_CHECK_MSG(false, "bad count in synthetic term '" << term << "'");
    }
    ORWL_CHECK_MSG(count >= 1, "count must be >= 1 in '" << term << "'");
    terms.emplace_back(type, count);
  }
  ORWL_CHECK_MSG(!terms.empty(), "empty synthetic spec");
  ORWL_CHECK_MSG(terms.back().first == ObjType::PU,
                 "synthetic spec must end with a pu level");
  for (std::size_t i = 0; i + 1 < terms.size(); ++i)
    ORWL_CHECK_MSG(terms[i].first != ObjType::PU,
                   "pu level must be last in synthetic spec");

  auto root = std::make_unique<Object>();
  root->type = ObjType::Machine;

  int next_os = 0;
  std::function<void(Object&, std::size_t)> grow = [&](Object& parent,
                                                       std::size_t term_idx) {
    if (term_idx == terms.size()) return;
    const auto [type, count] = terms[term_idx];
    for (int c = 0; c < count; ++c) {
      auto child = std::make_unique<Object>();
      child->type = type;
      child->parent = &parent;
      if (type == ObjType::PU) child->os_index = next_os++;
      grow(*child, term_idx + 1);
      parent.children.push_back(std::move(child));
    }
  };
  grow(*root, 0);
  return from_tree(std::move(root));
}

Topology Topology::paper_machine() { return synthetic("pack:24 core:8 pu:1"); }

Topology Topology::flat(int npus) {
  ORWL_CHECK_MSG(npus >= 1, "flat topology needs at least one PU");
  return synthetic("pu:" + std::to_string(npus));
}

Topology Topology::host() {
  // Only the CPUs this thread may run on: a run confined by taskset or a
  // cpuset must not place threads outside it.
  if (auto detected = detect_from_sysfs("/sys", current_thread_binding()))
    return std::move(*detected);
  const unsigned hc = std::thread::hardware_concurrency();
  return flat(hc > 0 ? static_cast<int>(hc) : 1);
}

Topology Topology::clone() const {
  std::function<std::unique_ptr<Object>(const Object&)> copy =
      [&](const Object& src) {
        auto dst = std::make_unique<Object>();
        dst->type = src.type;
        dst->os_index = src.os_index;
        for (const auto& ch : src.children) {
          auto c = copy(*ch);
          c->parent = dst.get();
          dst->children.push_back(std::move(c));
        }
        return dst;
      };
  return from_tree(copy(*root_));
}

Topology Topology::from_tree(std::unique_ptr<Object> root) {
  ORWL_CHECK(root != nullptr);
  Topology t;
  t.root_ = std::move(root);
  t.index();
  return t;
}

void Topology::index() {
  levels_.clear();
  // Breadth-first: assign depths and level-local logical indices.
  std::vector<Object*> frontier{root_.get()};
  int depth = 0;
  while (!frontier.empty()) {
    std::vector<Object*> next;
    for (std::size_t i = 0; i < frontier.size(); ++i) {
      Object* obj = frontier[i];
      obj->depth = depth;
      obj->logical_index = static_cast<int>(i);
      for (auto& ch : obj->children) next.push_back(ch.get());
    }
    levels_.push_back(frontier);
    frontier = std::move(next);
    ++depth;
  }
  // Leaves must be PUs at the deepest level with unique os indices.
  Bitmap seen;
  for (Object* leaf : levels_.back()) {
    ORWL_CHECK_MSG(leaf->type == ObjType::PU,
                   "topology leaf is not a PU (type "
                       << orwl::topo::to_string(leaf->type) << ")");
    ORWL_CHECK_MSG(leaf->os_index >= 0, "PU without os_index");
    ORWL_CHECK_MSG(!seen.test(leaf->os_index),
                   "duplicate PU os_index " << leaf->os_index);
    seen.set(leaf->os_index);
  }
  // Intermediate levels must not contain leaves (tree must be uniform-depth).
  for (std::size_t d = 0; d + 1 < levels_.size(); ++d)
    for (Object* obj : levels_[d])
      ORWL_CHECK_MSG(!obj->is_leaf(),
                     "non-PU leaf at depth " << d << "; topology must have "
                     "uniform depth");
  // Fill cpusets bottom-up.
  for (std::size_t d = levels_.size(); d-- > 0;) {
    for (Object* obj : levels_[d]) {
      if (obj->is_leaf()) {
        obj->cpuset = Bitmap::single(obj->os_index);
      } else {
        obj->cpuset = Bitmap{};
        for (auto& ch : obj->children) obj->cpuset |= ch->cpuset;
      }
    }
  }
}

std::span<Object* const> Topology::level(int d) const {
  ORWL_CHECK_MSG(d >= 0 && d < depth(), "level " << d << " out of range");
  return levels_[static_cast<std::size_t>(d)];
}

std::span<Object* const> Topology::pus() const { return levels_.back(); }

std::vector<int> Topology::arities() const {
  std::vector<int> out;
  for (std::size_t d = 0; d + 1 < levels_.size(); ++d) {
    int a = 0;
    for (const Object* obj : levels_[d]) a = std::max(a, obj->arity());
    out.push_back(a);
  }
  return out;
}

bool Topology::is_balanced() const {
  for (std::size_t d = 0; d + 1 < levels_.size(); ++d) {
    const int a = levels_[d].front()->arity();
    for (const Object* obj : levels_[d])
      if (obj->arity() != a) return false;
  }
  return true;
}

const Object* Topology::pu_by_os(int os_index) const {
  for (const Object* pu : pus())
    if (pu->os_index == os_index) return pu;
  return nullptr;
}

int Topology::common_ancestor_depth(const Object& a, const Object& b) const {
  const Object* pa = &a;
  const Object* pb = &b;
  while (pa->depth > pb->depth) pa = pa->parent;
  while (pb->depth > pa->depth) pb = pb->parent;
  while (pa != pb) {
    pa = pa->parent;
    pb = pb->parent;
    ORWL_CHECK_MSG(pa && pb, "objects from different topologies");
  }
  return pa->depth;
}

int Topology::hop_distance(const Object& a, const Object& b) const {
  const int dca = common_ancestor_depth(a, b);
  return (a.depth - dca) + (b.depth - dca);
}

std::string Topology::to_string() const {
  std::ostringstream os;
  std::function<void(const Object&, int)> dump = [&](const Object& obj,
                                                     int indent) {
    for (int i = 0; i < indent; ++i) os << "  ";
    os << topo::to_string(obj.type) << '#' << obj.logical_index;
    if (obj.type == ObjType::PU) os << " (os " << obj.os_index << ')';
    if (!obj.is_leaf()) os << " [" << obj.cpuset.to_list_string() << ']';
    os << '\n';
    // Collapse repetition: show first child subtree, then a count, when all
    // children are structurally identical leaves-only PUs at big arity.
    for (const auto& ch : obj.children) dump(*ch, indent + 1);
  };
  dump(*root_, 0);
  return os.str();
}

std::string Topology::to_dot() const {
  std::ostringstream os;
  os << "digraph topology {\n  rankdir=TB;\n  node [shape=box];\n";
  std::function<void(const Object&)> dump = [&](const Object& obj) {
    os << "  n" << obj.depth << '_' << obj.logical_index << " [label=\""
       << topo::to_string(obj.type) << ' ' << obj.logical_index;
    if (obj.type == ObjType::PU) os << "\\nos " << obj.os_index;
    else os << "\\ncpuset " << obj.cpuset.to_list_string();
    os << "\"];\n";
    for (const auto& ch : obj.children) {
      os << "  n" << obj.depth << '_' << obj.logical_index << " -> n"
         << ch->depth << '_' << ch->logical_index << ";\n";
      dump(*ch);
    }
  };
  dump(*root_);
  os << "}\n";
  return os.str();
}

std::string Topology::summary() const {
  if (!is_balanced())
    return "irregular(" + std::to_string(num_pus()) + " pus)";
  std::ostringstream os;
  for (std::size_t d = 1; d < levels_.size(); ++d) {
    if (d > 1) os << ' ';
    os << topo::to_string(levels_[d].front()->type) << ':'
       << levels_[d - 1].front()->arity();
  }
  return os.str();
}

}  // namespace orwl::topo
