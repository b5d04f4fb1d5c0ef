#include "hierarchy/verdict_table.hpp"

#include "dtm/view_cache.hpp"
#include "hierarchy/game.hpp"

#include <algorithm>
#include <bit>

namespace lph {

namespace {

using Word = std::atomic<std::uint64_t>;

/// Configurations per page: a 512-byte known half plus a 512-byte accept
/// half.  Classes below one page get a page sized to their configurations.
constexpr std::uint64_t kPageBits = 4096;
constexpr std::size_t kPageWords = kPageBits / 64;
/// Heap cost of a class beyond its signature, directory and pages: the
/// object, its LRU list and index nodes, the shared_ptr control block.
constexpr std::int64_t kClassOverhead = 192;

std::size_t page_words_for(std::uint64_t configs) {
    return configs >= kPageBits ? kPageWords
                                : static_cast<std::size_t>((configs + 63) / 64);
}

/// Bits of page word `w` that name configurations below `configs`.
std::uint64_t valid_bits(std::uint64_t configs, std::size_t page, std::size_t w) {
    const std::uint64_t first = page * kPageBits + w * 64;
    if (first >= configs) {
        return 0;
    }
    const std::uint64_t count = configs - first;
    return count >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << count) - 1;
}

void put_u32(std::string& out, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
}

void put_u64(std::string& out, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
}

std::uint64_t get_le(const char* p, int bytes) {
    std::uint64_t v = 0;
    for (int i = 0; i < bytes; ++i) {
        v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i]))
             << (8 * i);
    }
    return v;
}

} // namespace

struct VerdictTable::Account {
    std::atomic<std::int64_t> bytes{0};
    std::atomic<std::int64_t> entries{0};
};

/// One view class: its signature, configuration count and lazily allocated
/// pages (words [0, page_words) of a page are known bits, the next
/// page_words accept bits).  Gives its bytes and entries back to the table's
/// account when the last holder — the table or a solve — releases it.
class VerdictTable::Class {
public:
    Class(std::string sig, std::uint64_t configs_in,
          std::shared_ptr<Account> account)
        : signature(std::move(sig)),
          configs(configs_in),
          page_words(page_words_for(configs_in)),
          page_count(static_cast<std::size_t>((configs_in + kPageBits - 1) /
                                              kPageBits)),
          pages(new std::atomic<Word*>[page_count]),
          account_(std::move(account)) {
        for (std::size_t p = 0; p < page_count; ++p) {
            pages[p].store(nullptr, std::memory_order_relaxed);
        }
        charge(kClassOverhead + static_cast<std::int64_t>(
                                    signature.size() +
                                    page_count * sizeof(void*)));
    }

    ~Class() {
        for (std::size_t p = 0; p < page_count; ++p) {
            delete[] pages[p].load(std::memory_order_relaxed);
        }
        account_->bytes.fetch_sub(bytes.load(std::memory_order_relaxed),
                                  std::memory_order_relaxed);
        account_->entries.fetch_sub(entries.load(std::memory_order_relaxed),
                                    std::memory_order_relaxed);
    }

    Class(const Class&) = delete;
    Class& operator=(const Class&) = delete;

    void charge(std::int64_t n) {
        bytes.fetch_add(n, std::memory_order_relaxed);
        account_->bytes.fetch_add(n, std::memory_order_relaxed);
    }

    void count_entries(std::int64_t n) {
        entries.fetch_add(n, std::memory_order_relaxed);
        account_->entries.fetch_add(n, std::memory_order_relaxed);
    }

    /// The page for filling, allocated on first use unless the table's live
    /// bytes already reach `hard_cap` (then nullptr: the fill is skipped).
    Word* page_for_fill(std::size_t p, std::int64_t hard_cap) {
        Word* page = pages[p].load(std::memory_order_acquire);
        if (page != nullptr) {
            return page;
        }
        const std::int64_t page_bytes =
            static_cast<std::int64_t>(2 * page_words * sizeof(Word));
        if (account_->bytes.load(std::memory_order_relaxed) + page_bytes >
            hard_cap) {
            return nullptr;
        }
        Word* fresh = new Word[2 * page_words];
        for (std::size_t w = 0; w < 2 * page_words; ++w) {
            fresh[w].store(0, std::memory_order_relaxed);
        }
        if (pages[p].compare_exchange_strong(page, fresh,
                                             std::memory_order_acq_rel,
                                             std::memory_order_acquire)) {
            charge(page_bytes);
            return fresh;
        }
        delete[] fresh; // another filler won the race; `page` holds its page
        return page;
    }

    const std::string signature;
    const std::uint64_t configs;
    const std::size_t page_words;
    const std::size_t page_count;
    const std::unique_ptr<std::atomic<Word*>[]> pages;
    std::atomic<std::int64_t> bytes{0};
    std::atomic<std::int64_t> entries{0};

private:
    std::shared_ptr<Account> account_;
};

VerdictTable::Stats& VerdictTable::Stats::operator+=(const Stats& other) {
    hits += other.hits;
    misses += other.misses;
    evictions += other.evictions;
    entries += other.entries;
    classes += other.classes;
    bytes += other.bytes;
    verdict_mismatches += other.verdict_mismatches;
    return *this;
}

double VerdictTable::Stats::hit_rate() const {
    const double total = static_cast<double>(hits + misses);
    return total > 0 ? static_cast<double>(hits) / total : 0.0;
}

obs::MetricList VerdictTable::Stats::to_metrics() const {
    return {
        {"cache.hits", static_cast<double>(hits)},
        {"cache.misses", static_cast<double>(misses)},
        {"cache.evictions", static_cast<double>(evictions)},
        {"cache.entries", static_cast<double>(entries)},
        {"cache.classes", static_cast<double>(classes)},
        {"cache.bytes", static_cast<double>(bytes)},
        {"cache.verdict_mismatches", static_cast<double>(verdict_mismatches)},
        {"cache.hit_rate", hit_rate()},
    };
}

VerdictTable::VerdictTable(std::size_t byte_budget)
    : budget_(byte_budget), account_(std::make_shared<Account>()) {}

std::shared_ptr<VerdictTable::Class>
VerdictTable::class_locked(std::string signature, std::uint64_t configs) {
    const auto it = index_.find(std::string_view(signature));
    if (it != index_.end()) {
        lru_.splice(lru_.begin(), lru_, it->second);
        return *it->second;
    }
    lru_.push_front(
        std::make_shared<Class>(std::move(signature), configs, account_));
    index_.emplace(std::string_view(lru_.front()->signature), lru_.begin());
    return lru_.front();
}

void VerdictTable::evict_locked(std::size_t keep) {
    // Live bytes also cover evicted classes a solve still holds; those go
    // when the solve ends, so the estimate only counts what eviction frees.
    std::int64_t excess = account_->bytes.load(std::memory_order_relaxed) -
                          static_cast<std::int64_t>(budget_);
    while (excess > 0 && lru_.size() > keep) {
        const std::shared_ptr<Class>& victim = lru_.back();
        excess -= victim->bytes.load(std::memory_order_relaxed);
        index_.erase(std::string_view(victim->signature));
        lru_.pop_back();
        evictions_.fetch_add(1, std::memory_order_relaxed);
    }
}

std::vector<std::shared_ptr<VerdictTable::Class>> VerdictTable::acquire(
    const std::vector<std::pair<std::string, std::uint64_t>>& signatures) {
    std::vector<std::shared_ptr<Class>> classes;
    classes.reserve(signatures.size());
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [signature, configs] : signatures) {
        classes.push_back(class_locked(signature, configs));
    }
    evict_locked(classes.size()); // the acquired classes sit at the front
    return classes;
}

bool VerdictTable::lookup(const Class& cls, std::uint64_t config,
                          bool& accept) {
    const Word* page =
        cls.pages[config / kPageBits].load(std::memory_order_acquire);
    if (page == nullptr) {
        return false;
    }
    const std::uint64_t bit = config % kPageBits;
    const std::size_t w = static_cast<std::size_t>(bit >> 6);
    const std::uint64_t mask = std::uint64_t{1} << (bit & 63);
    if ((page[w].load(std::memory_order_acquire) & mask) == 0) {
        return false;
    }
    accept = (page[cls.page_words + w].load(std::memory_order_relaxed) &
              mask) != 0;
    return true;
}

bool VerdictTable::fill(Class& cls, std::uint64_t config, bool accept) {
    Word* page = cls.page_for_fill(static_cast<std::size_t>(config / kPageBits),
                                   2 * static_cast<std::int64_t>(budget_));
    if (page == nullptr) {
        return false;
    }
    const std::uint64_t bit = config % kPageBits;
    const std::size_t w = static_cast<std::size_t>(bit >> 6);
    const std::uint64_t mask = std::uint64_t{1} << (bit & 63);
    if ((page[w].load(std::memory_order_acquire) & mask) != 0) {
        const bool known_accept =
            (page[cls.page_words + w].load(std::memory_order_relaxed) & mask) !=
            0;
        if (known_accept != accept) {
            verdict_mismatches_.fetch_add(1, std::memory_order_relaxed);
        }
        return false;
    }
    // Accept before known: a reader that sees the known bit (acquire) also
    // sees the accept bit.
    if (accept) {
        page[cls.page_words + w].fetch_or(mask, std::memory_order_release);
    }
    if ((page[w].fetch_or(mask, std::memory_order_release) & mask) != 0) {
        return false; // a concurrent fill of the same entry won
    }
    cls.count_entries(1);
    return true;
}

void VerdictTable::record(std::uint64_t hits, std::uint64_t misses) {
    hits_.fetch_add(hits, std::memory_order_relaxed);
    misses_.fetch_add(misses, std::memory_order_relaxed);
}

VerdictTable::Stats VerdictTable::stats() const {
    Stats s;
    s.hits = hits_.load(std::memory_order_relaxed);
    s.misses = misses_.load(std::memory_order_relaxed);
    s.evictions = evictions_.load(std::memory_order_relaxed);
    s.verdict_mismatches = verdict_mismatches_.load(std::memory_order_relaxed);
    s.bytes = static_cast<std::uint64_t>(
        std::max<std::int64_t>(0, account_->bytes.load(std::memory_order_relaxed)));
    s.entries = static_cast<std::uint64_t>(std::max<std::int64_t>(
        0, account_->entries.load(std::memory_order_relaxed)));
    const std::lock_guard<std::mutex> lock(mutex_);
    s.classes = lru_.size();
    return s;
}

// Entry encoding: u64 configs, then per page holding a known bit:
// u32 page index | page_words known words | page_words accept words (u64s,
// little-endian, accept masked by known).
std::vector<std::pair<std::string, std::string>>
VerdictTable::export_entries() const {
    std::vector<std::shared_ptr<Class>> classes;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
            classes.push_back(*it);
        }
    }
    std::vector<std::pair<std::string, std::string>> entries;
    for (const std::shared_ptr<Class>& cls : classes) {
        std::string value;
        put_u64(value, cls->configs);
        const std::size_t header = value.size();
        std::vector<std::uint64_t> known(cls->page_words);
        for (std::size_t p = 0; p < cls->page_count; ++p) {
            const Word* page = cls->pages[p].load(std::memory_order_acquire);
            if (page == nullptr) {
                continue;
            }
            bool any = false;
            for (std::size_t w = 0; w < cls->page_words; ++w) {
                known[w] = page[w].load(std::memory_order_acquire);
                any = any || known[w] != 0;
            }
            if (!any) {
                continue;
            }
            put_u32(value, static_cast<std::uint32_t>(p));
            for (std::size_t w = 0; w < cls->page_words; ++w) {
                put_u64(value, known[w]);
            }
            for (std::size_t w = 0; w < cls->page_words; ++w) {
                put_u64(value, known[w] &
                                   page[cls->page_words + w].load(
                                       std::memory_order_relaxed));
            }
        }
        if (value.size() > header) { // a class without known bits says nothing
            entries.emplace_back(cls->signature, std::move(value));
        }
    }
    return entries;
}

std::size_t VerdictTable::restore(
    const std::vector<std::pair<std::string, std::string>>& entries) {
    std::size_t admitted = 0;
    for (const auto& [signature, value] : entries) {
        if (value.size() < 8) {
            continue;
        }
        const std::uint64_t configs = get_le(value.data(), 8);
        if (configs == 0 || configs > kMaxConfigs) {
            continue;
        }
        const std::size_t words = page_words_for(configs);
        const std::size_t page_count =
            static_cast<std::size_t>((configs + kPageBits - 1) / kPageBits);
        const std::size_t record = 4 + 16 * words;
        const std::size_t body = value.size() - 8;
        if (body == 0 || body % record != 0) {
            continue;
        }
        // Validate the whole entry before touching the table.
        bool valid = true;
        std::size_t previous = 0;
        for (std::size_t r = 0; r < body / record && valid; ++r) {
            const char* rec = value.data() + 8 + r * record;
            const std::size_t p = static_cast<std::size_t>(get_le(rec, 4));
            valid = p < page_count && (r == 0 || p > previous);
            for (std::size_t w = 0; w < words && valid; ++w) {
                valid = (get_le(rec + 4 + 8 * w, 8) &
                         ~valid_bits(configs, p, w)) == 0;
            }
            previous = p;
        }
        if (!valid) {
            continue;
        }
        std::shared_ptr<Class> cls;
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            cls = class_locked(signature, configs);
            evict_locked(1);
        }
        if (cls->configs != configs) {
            continue; // same signature, different shape: not this class
        }
        for (std::size_t r = 0; r < body / record; ++r) {
            const char* rec = value.data() + 8 + r * record;
            Word* page = cls->page_for_fill(
                static_cast<std::size_t>(get_le(rec, 4)),
                2 * static_cast<std::int64_t>(budget_));
            if (page == nullptr) {
                break;
            }
            for (std::size_t w = 0; w < words; ++w) {
                const std::uint64_t in_known = get_le(rec + 4 + 8 * w, 8);
                const std::uint64_t in_accept =
                    get_le(rec + 4 + 8 * (words + w), 8) & in_known;
                const std::uint64_t live_known =
                    page[w].load(std::memory_order_acquire);
                const std::uint64_t live_accept =
                    page[words + w].load(std::memory_order_relaxed);
                const std::uint64_t conflicts =
                    in_known & live_known & (in_accept ^ live_accept);
                verdict_mismatches_.fetch_add(
                    static_cast<std::uint64_t>(std::popcount(conflicts)),
                    std::memory_order_relaxed);
                const std::uint64_t fresh = in_known & ~live_known;
                if (fresh == 0) {
                    continue;
                }
                page[words + w].fetch_or(in_accept & fresh,
                                         std::memory_order_release);
                const std::uint64_t before =
                    page[w].fetch_or(fresh, std::memory_order_release);
                cls->count_entries(std::popcount(fresh & ~before));
            }
        }
        ++admitted;
    }
    return admitted;
}

std::unique_ptr<ViewBinding>
ViewBinding::bind(VerdictTable& table, const LocalMachine& machine,
                  const GameTables& tables, const LabeledGraph& g,
                  const IdentifierAssignment& id, const ExecutionOptions& exec) {
    const ViewKeyBuilder keys(machine, g, id, exec);
    if (!keys.cacheable()) {
        return nullptr;
    }
    const std::size_t layers = tables.layers();
    const std::size_t n = g.num_nodes();
    std::unique_ptr<ViewBinding> binding(new ViewBinding(table, layers));
    binding->nodes_.resize(n);
    binding->affected_.resize(n);

    // Class signature: the verdict-relevant execution options (the radius
    // already opens the static prefix), the canonical rooted-ball
    // serialization, and every member's per-layer option list.  Equal
    // signatures mean the verdict is the same function of the positionally
    // indexed member digits — the prefix pins the view, the option lists
    // pin what each digit means — so one class serves every such node, in
    // this graph or any other.
    const std::string exec_part =
        "x" + std::to_string(exec.max_rounds) + ',' +
        std::to_string(exec.max_steps_per_round) + ',' +
        std::to_string(exec.enforce_declared_bounds) + ',' +
        std::to_string(exec.max_space_per_node) + ',' +
        std::to_string(exec.validate_certificates) + '|';
    std::vector<std::pair<std::string, std::uint64_t>> wanted;
    std::unordered_map<std::string, std::uint32_t> slot_of;
    for (NodeId u = 0; u < n; ++u) {
        Node& node = binding->nodes_[u];
        node.members = keys.cert_members(u);
        std::string signature = exec_part + keys.static_prefix(u) + '\x01';
        std::uint64_t stride = 1;
        node.strides.reserve(node.members.size() * layers);
        for (const NodeId member : node.members) {
            binding->affected_[member].push_back(u);
            for (std::size_t l = 0; l < layers; ++l) {
                const std::vector<BitString>& options = tables.layer(l)[member];
                node.strides.push_back(stride);
                if (stride > VerdictTable::kMaxConfigs / options.size()) {
                    return nullptr;
                }
                stride *= options.size();
                for (const BitString& option : options) {
                    signature += option;
                    signature += '\x02';
                }
                signature += '\x03';
            }
            signature += '\x04';
        }
        const auto [it, inserted] = slot_of.emplace(
            signature, static_cast<std::uint32_t>(wanted.size()));
        if (inserted) {
            wanted.emplace_back(std::move(signature), stride);
        } else {
            ++binding->orbit_hits_;
        }
        node.slot = it->second;
    }
    binding->classes_ = table.acquire(wanted);
    return binding;
}

std::uint64_t ViewBinding::config(
    NodeId u, const std::vector<std::vector<std::size_t>>& idx) const {
    const Node& node = nodes_[u];
    std::uint64_t config = 0;
    for (std::size_t j = 0; j < node.members.size(); ++j) {
        for (std::size_t l = 0; l < layers_; ++l) {
            config += static_cast<std::uint64_t>(idx[l][node.members[j]]) *
                      node.strides[j * layers_ + l];
        }
    }
    return config;
}

} // namespace lph
