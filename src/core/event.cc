#include "core/event.h"

#include <atomic>
#include <cstdlib>

#include "core/event_arena.h"

#if defined(__GNUG__)
#include <cxxabi.h>
#endif

#if defined(__SANITIZE_ADDRESS__)
// Arena memory is poisoned while no live event occupies it, so ASan reports
// a stale event read across an epoch (ResetEpoch) as use-after-poison.
#include <sanitizer/asan_interface.h>
#define SYSTEST_ARENA_POISON(addr, size) ASAN_POISON_MEMORY_REGION(addr, size)
#define SYSTEST_ARENA_UNPOISON(addr, size) \
  ASAN_UNPOISON_MEMORY_REGION(addr, size)
#else
#define SYSTEST_ARENA_POISON(addr, size) ((void)(addr), (void)(size))
#define SYSTEST_ARENA_UNPOISON(addr, size) ((void)(addr), (void)(size))
#endif

namespace systest {

namespace detail {

EventTypeId TypeInternTable::GetOrRegister(std::type_index type) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto [it, inserted] =
      ids_.try_emplace(type, static_cast<EventTypeId>(ids_.size() + 1));
  if (inserted) {
    std::string full = DemangleTypeName(type.name());
    const auto pos = full.rfind("::");
    names_.push_back(pos == std::string::npos ? std::move(full)
                                              : full.substr(pos + 2));
  }
  return it->second;
}

std::size_t TypeInternTable::Count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return ids_.size();
}

std::string TypeInternTable::NameOf(EventTypeId id) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (id == kInvalidEventTypeId || id > names_.size()) {
    return "?";
  }
  return names_[id - 1];
}

TypeInternTable& EventTypeTable() {
  static TypeInternTable table;
  return table;
}

TypeInternTable& MonitorTypeTable() {
  static TypeInternTable table;
  return table;
}

namespace {

// Clone registry: dense, lock-free array indexed by EventTypeId. The
// capacity bounds the number of distinct event TYPES in a process (not
// instances); ids past the end simply have no clone and are never
// duplicated.
constexpr std::size_t kMaxCloneTypes = 4096;
std::atomic<EventCloneFn> g_clone_fns[kMaxCloneTypes] = {};

}  // namespace

void RegisterEventClone(EventTypeId id, EventCloneFn fn) {
  if (id < kMaxCloneTypes) {
    g_clone_fns[id].store(fn, std::memory_order_relaxed);
  }
}

EventCloneFn CloneFnFor(EventTypeId id) noexcept {
  return id < kMaxCloneTypes ? g_clone_fns[id].load(std::memory_order_relaxed)
                             : nullptr;
}

std::unique_ptr<const Event> CloneEvent(const Event& ev) {
  const EventCloneFn fn = CloneFnFor(ev.TypeId());
  return fn != nullptr ? fn(ev) : nullptr;
}

namespace {

// Trivially-destructible TLS (single fs-relative load, no init guard, no
// teardown ordering hazard) — same scheme as g_event_pool below.
thread_local EventArena* g_armed_arena = nullptr;
thread_local EventAllocStats g_alloc_stats;

}  // namespace

EventAllocStats& ThreadEventAllocStats() noexcept { return g_alloc_stats; }

EventArena* ArmedEventArena() noexcept { return g_armed_arena; }

void* EventArena::Allocate(std::size_t requested) {
  const std::size_t size = (requested + (kAlign - 1)) & ~(kAlign - 1);
  epoch_bytes_ += size;
  EventAllocStats& stats = g_alloc_stats;
  ++stats.arena_allocations;
  if (epoch_bytes_ > stats.arena_bytes_high_water) {
    stats.arena_bytes_high_water = epoch_bytes_;
  }
  if (size > kChunkSize) [[unlikely]] {
    // Dedicated chunk — the matching delete will no-op while armed, so a
    // ::operator new fallback here would leak. The epoch rewind frees it.
    Chunk chunk{std::make_unique<std::byte[]>(size), size};
    void* ptr = chunk.data.get();
    oversize_.push_back(std::move(chunk));
    return ptr;
  }
  while (true) {
    if (current_ < chunks_.size()) {
      Chunk& chunk = chunks_[current_];
      if (offset_ + size <= chunk.size) {
        void* ptr = chunk.data.get() + offset_;
        offset_ += size;
        SYSTEST_ARENA_UNPOISON(ptr, requested);
        return ptr;
      }
      ++current_;
      offset_ = 0;
      continue;
    }
    chunks_.push_back(Chunk{std::make_unique<std::byte[]>(kChunkSize),
                            kChunkSize});
    SYSTEST_ARENA_POISON(chunks_.back().data.get(), kChunkSize);
  }
}

void EventArena::ResetEpoch() noexcept {
  for (std::size_t i = 0; i < chunks_.size() && i <= current_; ++i) {
    SYSTEST_ARENA_POISON(chunks_[i].data.get(), chunks_[i].size);
  }
  current_ = 0;
  offset_ = 0;
  epoch_bytes_ = 0;
  oversize_.clear();
}

ScopedEventArenaArm::ScopedEventArenaArm(EventArena* arena) noexcept
    : previous_(g_armed_arena) {
  g_armed_arena = arena;
}

ScopedEventArenaArm::~ScopedEventArenaArm() { g_armed_arena = previous_; }

ScopedEventArenaPause::ScopedEventArenaPause() noexcept
    : previous_(g_armed_arena) {
  g_armed_arena = nullptr;
}

ScopedEventArenaPause::~ScopedEventArenaPause() { g_armed_arena = previous_; }

}  // namespace detail

namespace {

// Event free-list pool: bins of 16 bytes up to 512, bounded per bin so a
// pathological burst cannot pin unbounded memory. Everything is
// thread-local; the destructor returns retained blocks to the system when a
// (worker) thread exits.
constexpr std::size_t kBinStep = 16;
constexpr std::size_t kMaxPooledSize = 512;
constexpr std::size_t kNumBins = kMaxPooledSize / kBinStep;
constexpr std::size_t kMaxPerBin = 1024;

struct EventPool {
  struct FreeList {
    void* head = nullptr;
    std::size_t count = 0;
  };
  FreeList bins[kNumBins];

  ~EventPool() {
    for (FreeList& bin : bins) {
      while (bin.head != nullptr) {
        void* next = *static_cast<void**>(bin.head);
        ::operator delete(bin.head);
        bin.head = next;
      }
    }
  }
};

// Split TLS scheme: the raw pointer is trivially-destructible, so reads
// compile to one fs-relative load instead of the per-access init-guard
// wrapper call a thread_local with a destructor would cost. The owning
// object (and its thread-exit cleanup) lives behind the cold init path; its
// destructor clears the pointer so late frees during thread teardown fall
// back to the global allocator instead of touching freed bins.
struct EventPoolOwner {
  EventPool pool;
  ~EventPoolOwner();
};

thread_local EventPool* g_event_pool = nullptr;

EventPoolOwner::~EventPoolOwner() { g_event_pool = nullptr; }

EventPool* InitEventPool() {
  thread_local EventPoolOwner owner;
  g_event_pool = &owner.pool;
  return &owner.pool;
}

}  // namespace

void* Event::operator new(std::size_t size) {
  // Execution-scoped arena (armed by ExecutionRunner while a recycled
  // Runtime runs one execution): bump-allocate, reclaim in bulk at the
  // execution-end epoch rewind. See core/event_arena.h.
  if (detail::EventArena* arena = detail::ArmedEventArena();
      arena != nullptr) {
    return arena->Allocate(size);
  }
  detail::EventAllocStats& stats = detail::ThreadEventAllocStats();
  if (size <= kMaxPooledSize) {
    EventPool* pool = g_event_pool;
    if (pool == nullptr) [[unlikely]] {
      pool = InitEventPool();
    }
    const std::size_t bin = (size + kBinStep - 1) / kBinStep - 1;
    EventPool::FreeList& list = pool->bins[bin];
    if (list.head != nullptr) {
      void* ptr = list.head;
      list.head = *static_cast<void**>(ptr);
      --list.count;
      ++stats.pool_hits;
      return ptr;
    }
    ++stats.pool_misses;
    return ::operator new((bin + 1) * kBinStep);
  }
  ++stats.pool_misses;
  return ::operator new(size);
}

void Event::operator delete(void* ptr, std::size_t size) noexcept {
  if (ptr == nullptr) {
    return;
  }
  // While an arena is armed, every live event on this thread is arena-backed
  // (heap-backed survivors — the sealed setup prototypes — are only freed
  // after disarming, see Runtime::TakeSetupPrototypes). Freeing is the epoch
  // rewind's job; individual deletes are no-ops.
  if (detail::ArmedEventArena() != nullptr) {
    return;
  }
  EventPool* pool = g_event_pool;
  if (pool != nullptr && size <= kMaxPooledSize) {
    const std::size_t bin = (size + kBinStep - 1) / kBinStep - 1;
    EventPool::FreeList& list = pool->bins[bin];
    if (list.count < kMaxPerBin) {
      *static_cast<void**>(ptr) = list.head;
      list.head = ptr;
      ++list.count;
      return;
    }
  }
  ::operator delete(ptr);
}

EventTypeId Event::InternTypeId() const {
  const EventTypeId id =
      detail::EventTypeTable().GetOrRegister(std::type_index(typeid(*this)));
  cached_type_id_ = id;
  return id;
}

std::string EventTypeName(EventTypeId id) {
  return detail::EventTypeTable().NameOf(id);
}

std::string DemangleTypeName(const char* mangled) {
#if defined(__GNUG__)
  int status = 0;
  char* demangled = abi::__cxa_demangle(mangled, nullptr, nullptr, &status);
  if (status == 0 && demangled != nullptr) {
    std::string result(demangled);
    std::free(demangled);
    return result;
  }
#endif
  return mangled;
}

std::string ShortTypeName(const std::type_info& info) {
  std::string full = DemangleTypeName(info.name());
  const auto pos = full.rfind("::");
  return pos == std::string::npos ? full : full.substr(pos + 2);
}

std::string Event::Name() const { return ShortTypeName(typeid(*this)); }

}  // namespace systest
