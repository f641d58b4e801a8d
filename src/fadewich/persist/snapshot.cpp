#include "fadewich/persist/snapshot.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <utility>

#include "fadewich/common/crc32.hpp"
#include "fadewich/common/error.hpp"

namespace fadewich::persist {

namespace {

constexpr char kMagic[4] = {'F', 'D', 'W', 'S'};
constexpr char kEndMagic[4] = {'F', 'D', 'W', 'E'};

// ---- payload writer ---------------------------------------------------

struct Writer {
  std::string out;

  template <typename T>
  void pod(const T& value) {
    const char* bytes = reinterpret_cast<const char*>(&value);
    out.append(bytes, sizeof(T));
  }

  void u8(std::uint8_t v) { pod(v); }
  void u64(std::uint64_t v) { pod(v); }

  void doubles(const std::vector<double>& v) {
    u64(v.size());
    if (!v.empty()) {
      out.append(reinterpret_cast<const char*>(v.data()),
                 v.size() * sizeof(double));
    }
  }

  void ints(const std::vector<int>& v) {
    u64(v.size());
    for (int x : v) pod(static_cast<std::int32_t>(x));
  }

  void u64s(const std::vector<std::uint64_t>& v) {
    u64(v.size());
    if (!v.empty()) {
      out.append(reinterpret_cast<const char*>(v.data()),
                 v.size() * sizeof(std::uint64_t));
    }
  }

  void matrix(const std::vector<std::vector<double>>& m) {
    u64(m.size());
    u64(m.empty() ? 0 : m.front().size());
    for (const auto& row : m) {
      if (row.size() != (m.empty() ? 0 : m.front().size())) {
        throw Error("snapshot encode: ragged matrix");
      }
      if (!row.empty()) {
        out.append(reinterpret_cast<const char*>(row.data()),
                   row.size() * sizeof(double));
      }
    }
  }
};

// ---- payload reader ---------------------------------------------------

// Bounds-checked cursor: every count is validated against the bytes that
// actually remain before any allocation, so a garbage length can never
// drive a huge allocation or an out-of-bounds read.
struct Reader {
  const char* data;
  std::size_t size;
  std::size_t pos = 0;

  void require(std::size_t n) const {
    if (n > size - pos) throw Error("snapshot payload truncated");
  }

  template <typename T>
  T pod() {
    require(sizeof(T));
    T value;
    std::memcpy(&value, data + pos, sizeof(T));
    pos += sizeof(T);
    return value;
  }

  std::uint8_t u8() { return pod<std::uint8_t>(); }
  std::uint64_t u64() { return pod<std::uint64_t>(); }

  std::size_t count(std::size_t element_size) {
    const std::uint64_t n = u64();
    if (element_size > 0 && n > (size - pos) / element_size) {
      throw Error("snapshot payload has an implausible element count");
    }
    return static_cast<std::size_t>(n);
  }

  std::vector<double> doubles() {
    const std::size_t n = count(sizeof(double));
    std::vector<double> v(n);
    if (n > 0) {
      require(n * sizeof(double));
      std::memcpy(v.data(), data + pos, n * sizeof(double));
      pos += n * sizeof(double);
    }
    return v;
  }

  std::vector<int> ints() {
    const std::size_t n = count(sizeof(std::int32_t));
    std::vector<int> v;
    v.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      v.push_back(static_cast<int>(pod<std::int32_t>()));
    }
    return v;
  }

  std::vector<std::uint64_t> u64s() {
    const std::size_t n = count(sizeof(std::uint64_t));
    std::vector<std::uint64_t> v(n);
    if (n > 0) {
      require(n * sizeof(std::uint64_t));
      std::memcpy(v.data(), data + pos, n * sizeof(std::uint64_t));
      pos += n * sizeof(std::uint64_t);
    }
    return v;
  }

  std::vector<std::vector<double>> matrix() {
    const std::uint64_t rows = u64();
    const std::uint64_t cols = u64();
    if (cols > 0 && rows > (size - pos) / (cols * sizeof(double))) {
      throw Error("snapshot payload has an implausible matrix shape");
    }
    std::vector<std::vector<double>> m;
    m.reserve(static_cast<std::size_t>(rows));
    for (std::uint64_t r = 0; r < rows; ++r) {
      std::vector<double> row(static_cast<std::size_t>(cols));
      if (cols > 0) {
        require(static_cast<std::size_t>(cols) * sizeof(double));
        std::memcpy(row.data(), data + pos, cols * sizeof(double));
        pos += static_cast<std::size_t>(cols) * sizeof(double);
      }
      m.push_back(std::move(row));
    }
    return m;
  }
};

void write_system(Writer& w, const core::SystemState& s) {
  w.u64(s.tick);
  w.u8(s.training ? 1 : 0);

  w.pod(static_cast<std::int64_t>(s.md.now));
  w.pod(s.md.last_st);
  w.doubles(s.md.profile_samples);
  w.doubles(s.md.profile_queue);
  w.doubles(s.md.calibration_buffer);

  w.u8(static_cast<std::uint8_t>(s.controller));
  w.doubles(s.kma_last_input);

  w.u64(s.sessions.size());
  for (const core::SessionSnapshot& session : s.sessions) {
    w.u8(static_cast<std::uint8_t>(session.state));
    w.pod(session.last_alert);
  }

  w.u8(s.re_trained ? 1 : 0);
  if (s.re_trained) {
    w.ints(s.re.classes);
    w.doubles(s.re.scaler_means);
    w.doubles(s.re.scaler_scales);
    w.u64(s.re.machines.size());
    for (const auto& machine : s.re.machines) {
      w.pod(static_cast<std::int32_t>(machine.first_class));
      w.pod(static_cast<std::int32_t>(machine.second_class));
      w.matrix(machine.svm.support_x);
      w.doubles(machine.svm.support_alpha_y);
      w.pod(machine.svm.bias);
    }
  }

  w.matrix(s.training_samples.features);
  w.ints(s.training_samples.labels);
}

core::SystemState read_system(Reader& r) {
  core::SystemState s;
  s.tick = r.u64();
  s.training = r.u8() != 0;

  s.md.now = static_cast<Tick>(r.pod<std::int64_t>());
  s.md.last_st = r.pod<double>();
  s.md.profile_samples = r.doubles();
  s.md.profile_queue = r.doubles();
  s.md.calibration_buffer = r.doubles();

  const std::uint8_t controller = r.u8();
  if (controller > 1) throw Error("snapshot has a corrupt controller state");
  s.controller = static_cast<core::ControlState>(controller);
  s.kma_last_input = r.doubles();

  const std::size_t sessions = r.count(sizeof(std::uint8_t) + sizeof(double));
  s.sessions.reserve(sessions);
  for (std::size_t i = 0; i < sessions; ++i) {
    core::SessionSnapshot session;
    const std::uint8_t state = r.u8();
    if (state > 3) throw Error("snapshot has a corrupt session state");
    session.state = static_cast<core::SessionState>(state);
    session.last_alert = r.pod<double>();
    s.sessions.push_back(session);
  }

  s.re_trained = r.u8() != 0;
  if (s.re_trained) {
    s.re.classes = r.ints();
    s.re.scaler_means = r.doubles();
    s.re.scaler_scales = r.doubles();
    const std::size_t machines = r.count(2 * sizeof(std::int32_t));
    s.re.machines.reserve(machines);
    for (std::size_t i = 0; i < machines; ++i) {
      ml::MulticlassSvmState::PairwiseMachine machine;
      machine.first_class = static_cast<int>(r.pod<std::int32_t>());
      machine.second_class = static_cast<int>(r.pod<std::int32_t>());
      machine.svm.support_x = r.matrix();
      machine.svm.support_alpha_y = r.doubles();
      machine.svm.bias = r.pod<double>();
      s.re.machines.push_back(std::move(machine));
    }
  }

  s.training_samples.features = r.matrix();
  s.training_samples.labels = r.ints();
  if (s.training_samples.features.size() !=
      s.training_samples.labels.size()) {
    throw Error("snapshot training set is ragged");
  }
  return s;
}

}  // namespace

std::string encode_snapshot(const Snapshot& snapshot) {
  Writer payload;
  write_system(payload, snapshot.system);

  std::string out;
  out.reserve(payload.out.size() + 24);
  out.append(kMagic, sizeof(kMagic));
  Writer header;
  header.pod(kSnapshotVersion);
  header.u64(payload.out.size());
  out += header.out;
  out += payload.out;
  Writer trailer;
  trailer.pod(crc32(payload.out.data(), payload.out.size()));
  out += trailer.out;
  out.append(kEndMagic, sizeof(kEndMagic));
  return out;
}

Snapshot decode_snapshot(const std::string& bytes) {
  Reader r{bytes.data(), bytes.size()};
  char magic[4];
  r.require(sizeof(magic));
  std::memcpy(magic, bytes.data(), sizeof(magic));
  r.pos += sizeof(magic);
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    throw Error("not a FADEWICH snapshot (bad magic)");
  }
  const auto version = r.pod<std::uint32_t>();
  if (version != kSnapshotVersion) {
    throw Error("unsupported snapshot version " + std::to_string(version));
  }
  const std::uint64_t payload_len = r.u64();
  if (payload_len > bytes.size() - r.pos) {
    throw Error("snapshot truncated (payload cut short)");
  }
  const std::size_t payload_begin = r.pos;
  Reader payload{bytes.data() + payload_begin,
                 static_cast<std::size_t>(payload_len)};
  Snapshot snapshot;
  snapshot.system = read_system(payload);
  if (payload.pos != payload.size) {
    throw Error("snapshot payload has trailing garbage");
  }

  r.pos = payload_begin + static_cast<std::size_t>(payload_len);
  const auto stored_crc = r.pod<std::uint32_t>();
  const std::uint32_t actual_crc =
      crc32(bytes.data() + payload_begin, payload_len);
  if (stored_crc != actual_crc) throw Error("snapshot CRC mismatch");
  char end_magic[4];
  r.require(sizeof(end_magic));
  std::memcpy(end_magic, bytes.data() + r.pos, sizeof(end_magic));
  r.pos += sizeof(end_magic);
  if (std::memcmp(end_magic, kEndMagic, sizeof(kEndMagic)) != 0) {
    throw Error("snapshot truncated (end marker missing)");
  }
  return snapshot;
}

namespace {

/// write(2) all of `bytes`, resuming after short writes and EINTR.
bool write_all(int fd, const std::string& bytes) {
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

/// fsync the directory holding `path`, so a rename into it survives a
/// power loss.  A filesystem that cannot sync directories (EINVAL) has
/// nothing more to make durable.
bool sync_parent_directory(const std::string& path) {
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  const std::string dir = parent.empty() ? "." : parent.string();
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return false;
  const bool synced = ::fsync(fd) == 0 || errno == EINVAL;
  ::close(fd);
  return synced;
}

}  // namespace

void save_snapshot(const Snapshot& snapshot, const std::string& path) {
  const std::string bytes = encode_snapshot(snapshot);
  const std::string tmp = path + ".tmp";
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) throw Error("cannot open for writing: " + tmp);
  // The bytes reach the disk before the rename publishes them, so the
  // final name never points at an unsynced file.
  const bool written = write_all(fd, bytes) && ::fsync(fd) == 0;
  const bool closed = ::close(fd) == 0;
  std::error_code ec;
  if (!written || !closed) {
    std::filesystem::remove(tmp, ec);
    throw Error("snapshot write failed: " + tmp);
  }
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    throw Error("snapshot rename failed: " + path);
  }
  if (!sync_parent_directory(path)) {
    throw Error("snapshot directory sync failed: " + path);
  }
}

Snapshot load_snapshot(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw Error("cannot open for reading: " + path);
  std::string bytes((std::istreambuf_iterator<char>(is)),
                    std::istreambuf_iterator<char>());
  if (!is.good() && !is.eof()) throw Error("cannot read: " + path);
  return decode_snapshot(bytes);
}

}  // namespace fadewich::persist
