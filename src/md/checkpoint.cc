#include "md/checkpoint.h"

#include <fstream>
#include <ostream>

#include "common/error.h"

namespace anton::md {

namespace {
constexpr uint64_t kMagic = 0x414E544F4E43504Bull;  // "ANTONCPK"
constexpr uint32_t kVersion = 1;

template <typename T>
void write_pod(std::ostream& os, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
T read_pod(std::istream& is) {
  T v{};
  is.read(reinterpret_cast<char*>(&v), sizeof(T));
  ANTON_CHECK_MSG(is.good(), "truncated checkpoint");
  return v;
}
}  // namespace

void save_checkpoint(std::ostream& os, const Checkpoint& cp) {
  ANTON_CHECK(cp.positions.size() == cp.velocities.size());
  write_pod(os, kMagic);
  write_pod(os, kVersion);
  write_pod(os, cp.step);
  write_pod(os, static_cast<uint64_t>(cp.positions.size()));
  for (const auto& p : cp.positions) write_pod(os, p);
  for (const auto& v : cp.velocities) write_pod(os, v);
  ANTON_CHECK_MSG(os.good(), "checkpoint write failed");
}

Checkpoint load_checkpoint(std::istream& is) {
  ANTON_CHECK_MSG(read_pod<uint64_t>(is) == kMagic,
                  "not an anton2sim checkpoint");
  const auto version = read_pod<uint32_t>(is);
  ANTON_CHECK_MSG(version == kVersion,
                  "unsupported checkpoint version " << version);
  Checkpoint cp;
  cp.step = read_pod<int64_t>(is);
  const auto n = read_pod<uint64_t>(is);
  ANTON_CHECK_MSG(n < (1ull << 32), "implausible checkpoint size");
  // n comes from the stream: append record by record, so memory follows the
  // bytes actually present and a truncated stream fails before a huge count
  // is allocated.
  for (uint64_t i = 0; i < n; ++i) cp.positions.push_back(read_pod<Vec3>(is));
  for (uint64_t i = 0; i < n; ++i) cp.velocities.push_back(read_pod<Vec3>(is));
  return cp;
}

void save_checkpoint_file(const std::string& path, const Checkpoint& cp) {
  std::ofstream os(path, std::ios::binary);
  ANTON_CHECK_MSG(os.is_open(), "cannot open '" << path << "' for writing");
  save_checkpoint(os, cp);
}

Checkpoint load_checkpoint_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  ANTON_CHECK_MSG(is.is_open(), "cannot open '" << path << "'");
  return load_checkpoint(is);
}

Checkpoint capture(const System& system, int64_t step) {
  Checkpoint cp;
  cp.step = step;
  cp.positions.assign(system.positions().begin(), system.positions().end());
  cp.velocities.assign(system.velocities().begin(),
                       system.velocities().end());
  return cp;
}

void restore(System& system, const Checkpoint& cp) {
  ANTON_CHECK_MSG(static_cast<int>(cp.positions.size()) ==
                      system.num_atoms(),
                  "checkpoint atom count mismatch: "
                      << cp.positions.size() << " vs " << system.num_atoms());
  std::copy(cp.positions.begin(), cp.positions.end(),
            system.positions().begin());
  std::copy(cp.velocities.begin(), cp.velocities.end(),
            system.velocities().begin());
}

void append_xyz_frame(std::ostream& os, const System& system,
                      const std::string& comment) {
  const Topology& top = system.topology();
  os << top.num_atoms() << "\n" << comment << "\n";
  for (int i = 0; i < top.num_atoms(); ++i) {
    const auto& name = top.forcefield().type(top.type(i)).name;
    const Vec3 p = system.box().wrap(
        system.positions()[static_cast<size_t>(i)]);
    os << name.substr(0, 1) << " " << p.x << " " << p.y << " " << p.z
       << "\n";
  }
}

}  // namespace anton::md
