// The benchmark's own span recorder for the traced run.
//
// Spans are taken from outside the program, around the public calls the
// benchmark makes into each layer: name, start, end (steady-clock ns), the
// span that caused it, and the request id shared by every span of one
// request.  Each recording thread owns a Track, so recording takes no lock;
// everything stays in memory until write_json() runs at the end.
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace servebench {

struct Span {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   // 0: a root span
  std::uint64_t request = 0;  // 0: not part of a request
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class SpanLog {
 public:
  class Track {
   public:
    // Records one finished span and returns its id (never 0).
    std::uint64_t add(const char* name, std::int64_t start_ns,
                      std::int64_t end_ns, std::uint64_t parent = 0,
                      std::uint64_t request = 0) {
      const std::uint64_t id = (track_ << 40) | (spans_.size() + 1);
      spans_.push_back({name, id, parent, request, start_ns, end_ns});
      return id;
    }
    // A span whose end is set later by close(); lets child spans name it
    // as their parent while it is still running.
    std::uint64_t open(const char* name, std::int64_t start_ns,
                       std::uint64_t parent = 0, std::uint64_t request = 0) {
      return add(name, start_ns, start_ns, parent, request);
    }
    void close(std::uint64_t id, std::int64_t end_ns) {
      spans_[(id & ((std::uint64_t{1} << 40) - 1)) - 1].end_ns = end_ns;
    }

   private:
    friend class SpanLog;
    explicit Track(std::uint64_t track) : track_(track) {}
    std::uint64_t track_;
    std::vector<Span> spans_;
  };

  // A fresh track for one recording thread; valid for the log's lifetime.
  Track& track() {
    std::lock_guard<std::mutex> lock(mutex_);
    tracks_.push_back(std::unique_ptr<Track>(new Track(tracks_.size() + 1)));
    return *tracks_.back();
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t n = 0;
    for (const auto& t : tracks_) n += t->spans_.size();
    return n;
  }

  // Writes every span as one JSON array; returns false on an I/O error.
  // Call only after every recording thread has finished.
  bool write_json(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("[\n", f);
    bool first = true;
    for (const auto& t : tracks_) {
      for (const auto& s : t->spans_) {
        std::fprintf(f,
                     "%s{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                     "\"request\":%llu,\"start_ns\":%lld,\"end_ns\":%lld}",
                     first ? "" : ",\n", s.name,
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent),
                     static_cast<unsigned long long>(s.request),
                     static_cast<long long>(s.start_ns),
                     static_cast<long long>(s.end_ns));
        first = false;
      }
    }
    std::fputs("\n]\n", f);
    return std::fclose(f) == 0;
  }

 private:
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Track>> tracks_;
};

}  // namespace servebench
