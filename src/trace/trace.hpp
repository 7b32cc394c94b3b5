// rdcn: a trace is an ordered request sequence over a fixed rack universe —
// the input σ of the online problem.
//
// Storage is struct-of-arrays: the two endpoint columns live in separate
// contiguous `u[]` / `v[]` vectors rather than one vector<Request>.  The
// replay pipeline consumes traces in fixed-size chunks (sim::kServeChunk),
// and gather() materializes one chunk into a caller-provided AoS scratch
// buffer — the hand-off format of core::OnlineBMatcher::serve_batch — so
// the simulator's working set per chunk is two short column slices plus a
// scratch array that stays resident in L2.  The element API is unchanged
// except that operator[] and iterators yield Request by value (an 8-byte
// register pair) instead of by reference.
#pragma once

#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "trace/request.hpp"

namespace rdcn::trace {

class Trace {
 public:
  /// Random-access iterator yielding Request by value (the columns have no
  /// Request object to point into).  `const Request&` loop variables bind
  /// to the returned temporary as before.
  class const_iterator {
   public:
    using iterator_category = std::random_access_iterator_tag;
    using value_type = Request;
    using difference_type = std::ptrdiff_t;
    using reference = Request;
    using pointer = void;

    const_iterator() = default;
    const_iterator(const Rack* u, const Rack* v) : u_(u), v_(v) {}

    Request operator*() const noexcept { return Request{*u_, *v_}; }
    Request operator[](difference_type n) const noexcept {
      return Request{u_[n], v_[n]};
    }

    const_iterator& operator++() noexcept { ++u_; ++v_; return *this; }
    const_iterator operator++(int) noexcept { auto t = *this; ++*this; return t; }
    const_iterator& operator--() noexcept { --u_; --v_; return *this; }
    const_iterator operator--(int) noexcept { auto t = *this; --*this; return t; }
    const_iterator& operator+=(difference_type n) noexcept {
      u_ += n; v_ += n; return *this;
    }
    const_iterator& operator-=(difference_type n) noexcept {
      u_ -= n; v_ -= n; return *this;
    }
    friend const_iterator operator+(const_iterator it, difference_type n) noexcept {
      return it += n;
    }
    friend const_iterator operator+(difference_type n, const_iterator it) noexcept {
      return it += n;
    }
    friend const_iterator operator-(const_iterator it, difference_type n) noexcept {
      return it -= n;
    }
    friend difference_type operator-(const_iterator a, const_iterator b) noexcept {
      return a.u_ - b.u_;
    }
    friend bool operator==(const_iterator a, const_iterator b) noexcept {
      return a.u_ == b.u_;
    }
    friend auto operator<=>(const_iterator a, const_iterator b) noexcept {
      return a.u_ <=> b.u_;
    }

   private:
    const Rack* u_ = nullptr;
    const Rack* v_ = nullptr;
  };

  Trace() = default;
  Trace(std::size_t num_racks, std::string name)
      : num_racks_(num_racks), name_(std::move(name)) {}

  std::size_t num_racks() const noexcept { return num_racks_; }
  const std::string& name() const noexcept { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  std::size_t size() const noexcept { return u_.size(); }
  bool empty() const noexcept { return u_.empty(); }

  Request operator[](std::size_t i) const noexcept {
    RDCN_DCHECK(i < u_.size());
    return Request{u_[i], v_[i]};
  }

  void push_back(Request r) {
    RDCN_DCHECK(r.u < num_racks_ && r.v < num_racks_ && r.u != r.v);
    u_.push_back(r.u);
    v_.push_back(r.v);
  }

  /// Appends `n` requests: both columns grow once per call, not once per
  /// request (materialize() feeds whole 4096-request chunks through here).
  void append(const Request* r, std::size_t n) {
    const std::size_t base = u_.size();
    u_.resize(base + n);
    v_.resize(base + n);
    for (std::size_t i = 0; i < n; ++i) {
      RDCN_DCHECK(r[i].u < num_racks_ && r[i].v < num_racks_ &&
                  r[i].u != r[i].v);
      u_[base + i] = r[i].u;
      v_[base + i] = r[i].v;
    }
  }

  void reserve(std::size_t n) {
    u_.reserve(n);
    v_.reserve(n);
  }

  auto begin() const noexcept { return const_iterator(u_.data(), v_.data()); }
  auto end() const noexcept {
    return const_iterator(u_.data() + u_.size(), v_.data() + v_.size());
  }

  /// Materializes requests [offset, offset + count) into `out` in AoS form
  /// — the chunk hand-off of the batched serve pipeline.
  void gather(std::size_t offset, std::size_t count, Request* out) const {
    RDCN_DCHECK(offset + count <= u_.size());
    const Rack* u = u_.data() + offset;
    const Rack* v = v_.data() + offset;
    for (std::size_t i = 0; i < count; ++i) out[i] = Request{u[i], v[i]};
  }

  /// Truncated copy of the first `n` requests (for prefix experiments).
  Trace prefix(std::size_t n) const;

 private:
  std::size_t num_racks_ = 0;
  std::string name_;
  std::vector<Rack> u_;
  std::vector<Rack> v_;
};

}  // namespace rdcn::trace
