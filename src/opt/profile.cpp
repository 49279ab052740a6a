#include "opt/profile.hpp"

#include <algorithm>
#include <sstream>

namespace cms::opt {

void MissProfile::add_sample(const std::string& task, std::uint32_t sets,
                             double misses, double active_cycles,
                             double instructions) {
  ProfilePoint& p = tasks_[task][sets];
  p.misses.add(misses);
  p.active_cycles.add(active_cycles);
  p.instructions.add(instructions);
}

void MissProfile::add_fragment(const ProfileFragment& frag) {
  for (const ProfileSample& s : frag.samples)
    add_sample(s.task, s.sets, s.misses, s.active_cycles, s.instructions);
}

void MissProfile::set_point(const std::string& task, std::uint32_t sets,
                            ProfilePoint point) {
  tasks_[task][sets] = std::move(point);
}

namespace {
bool stats_identical(const RunningStats& a, const RunningStats& b) {
  return a.count() == b.count() && a.sum() == b.sum() && a.mean() == b.mean() &&
         a.variance() == b.variance() && a.min() == b.min() && a.max() == b.max();
}
}  // namespace

bool MissProfile::identical(const MissProfile& other) const {
  if (tasks_.size() != other.tasks_.size()) return false;
  for (auto it = tasks_.begin(), jt = other.tasks_.begin(); it != tasks_.end();
       ++it, ++jt) {
    if (it->first != jt->first || it->second.size() != jt->second.size())
      return false;
    for (auto ip = it->second.begin(), jp = jt->second.begin();
         ip != it->second.end(); ++ip, ++jp) {
      if (ip->first != jp->first) return false;
      const ProfilePoint& a = ip->second;
      const ProfilePoint& b = jp->second;
      if (!stats_identical(a.misses, b.misses) ||
          !stats_identical(a.active_cycles, b.active_cycles) ||
          !stats_identical(a.instructions, b.instructions))
        return false;
    }
  }
  return true;
}

MissProfile fold_fragments(std::vector<ProfileFragment> fragments) {
  std::sort(fragments.begin(), fragments.end(),
            [](const ProfileFragment& a, const ProfileFragment& b) {
              return a.order < b.order;
            });
  MissProfile prof;
  for (const ProfileFragment& frag : fragments) prof.add_fragment(frag);
  return prof;
}

const std::map<std::uint32_t, ProfilePoint>& MissProfile::curve(
    const std::string& task) const {
  static const std::map<std::uint32_t, ProfilePoint> kEmpty;
  const auto it = tasks_.find(task);
  return it != tasks_.end() ? it->second : kEmpty;
}

double MissProfile::misses(const std::string& task, std::uint32_t sets) const {
  const auto& c = curve(task);
  const auto it = c.find(sets);
  return it != c.end() ? it->second.misses.mean() : 0.0;
}

double MissProfile::active_cycles(const std::string& task,
                                  std::uint32_t sets) const {
  const auto& c = curve(task);
  const auto it = c.find(sets);
  return it != c.end() ? it->second.active_cycles.mean() : 0.0;
}

std::vector<std::string> MissProfile::task_names() const {
  std::vector<std::string> names;
  names.reserve(tasks_.size());
  for (const auto& [name, curve] : tasks_) names.push_back(name);
  return names;
}

std::vector<std::uint32_t> MissProfile::sizes(const std::string& task) const {
  std::vector<std::uint32_t> out;
  for (const auto& [sets, point] : curve(task)) out.push_back(sets);
  return out;
}

std::string MissProfile::to_string() const {
  std::ostringstream os;
  for (const auto& [name, curve] : tasks_) {
    os << name << ":";
    for (const auto& [sets, point] : curve)
      os << " " << sets << "->" << static_cast<std::uint64_t>(point.misses.mean());
    os << "\n";
  }
  return os.str();
}

}  // namespace cms::opt
