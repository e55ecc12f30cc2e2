#include "codecache/tier_pipeline.h"

#include <cmath>

#include "support/format.h"
#include "support/logging.h"

namespace gencache::cache {

// --- TemperaturePolicy ---

TemperaturePolicy::TemperaturePolicy(std::uint32_t threshold,
                                     TimeUs half_life, bool eager)
    : PromotionPolicy(true, true), threshold_(threshold),
      halfLife_(half_life), eager_(eager)
{
    if (half_life == 0) {
        fatal("temperature policy needs a positive half-life");
    }
}

void
TemperaturePolicy::decay(Fragment &frag, TimeUs now) const
{
    if (now <= frag.lastAccess) {
        return;
    }
    TimeUs steps = (now - frag.lastAccess) / halfLife_;
    if (steps == 0) {
        return;
    }
    frag.accessCount =
        steps >= 32 ? 0 : frag.accessCount >> steps;
    // Advance the clock by whole half-lives only, so partial periods
    // keep accumulating instead of being forgiven on every access.
    frag.lastAccess += steps * halfLife_;
}

void
TemperaturePolicy::onEnter(Fragment &frag, TimeUs now)
{
    frag.accessCount = 0;
    frag.lastAccess = now;
}

bool
TemperaturePolicy::onHit(Fragment &frag, TimeUs now)
{
    decay(frag, now);
    ++frag.accessCount;
    return eager_ && frag.accessCount >= threshold_;
}

bool
TemperaturePolicy::admitOnEviction(Fragment &frag, TimeUs now)
{
    decay(frag, now);
    return frag.accessCount >= threshold_;
}

// --- TierPipeline ---

Generation
tierLabelFor(std::size_t tier, std::size_t tier_count)
{
    if (tier >= tier_count) {
        GENCACHE_PANIC("tier {} out of range for a {}-tier pipeline",
                       tier, tier_count);
    }
    if (tier_count == 1) {
        return Generation::Unified;
    }
    if (tier == 0) {
        return Generation::Nursery;
    }
    if (tier == tier_count - 1) {
        return Generation::Persistent;
    }
    if (tier_count == 3) {
        return Generation::Probation;
    }
    return static_cast<Generation>(
        static_cast<std::size_t>(Generation::Tier1) + tier - 1);
}

TierPipeline::TierPipeline(TierPipelineInit init)
    : name_(std::move(init.name)), specs_(std::move(init.tiers)),
      edges_(std::move(init.edges))
{
    if (specs_.empty()) {
        fatal("tier pipeline needs at least one tier");
    }
    if (specs_.size() > kMaxTiers) {
        fatal("tier pipeline supports at most {} tiers (got {})",
              kMaxTiers, specs_.size());
    }
    if (edges_.size() != specs_.size() - 1) {
        fatal("tier pipeline needs {} edge policies for {} tiers "
              "(got {})", specs_.size() - 1, specs_.size(),
              edges_.size());
    }
    for (std::size_t i = 0; i < edges_.size(); ++i) {
        if (edges_[i] == nullptr) {
            fatal("tier pipeline edge {} has no policy", i);
        }
    }
    for (std::size_t i = 0; i < specs_.size(); ++i) {
        if (specs_[i].policy == LocalPolicy::Unbounded) {
            if (specs_.size() != 1) {
                fatal("unbounded tiers are only legal in a "
                      "single-tier pipeline");
            }
        } else if (specs_[i].capacityBytes == 0) {
            fatal("tier {} needs a positive capacity", i);
        }
    }
    tiers_.reserve(specs_.size());
    labels_.reserve(specs_.size());
    tierStats_.resize(specs_.size());
    for (std::size_t i = 0; i < specs_.size(); ++i) {
        tiers_.push_back(
            makeLocalCache(specs_[i].policy, specs_[i].capacityBytes));
        labels_.push_back(tierLabelFor(i, specs_.size()));
        tierPtrs_[i] = tiers_.back().get();
    }
    for (std::size_t i = 0; i < edges_.size(); ++i) {
        edgePtrs_[i] = edges_[i].get();
        if (edges_[i]->observesHits()) {
            hitObserverMask_ |= static_cast<std::uint8_t>(1u << i);
        }
        if (edges_[i]->observesEntry()) {
            entryTrackerMask_ |= static_cast<std::uint8_t>(1u << i);
        }
    }
    multiTier_ = specs_.size() > 1;
}

void
TierPipeline::panicPastSharedKeyTable(TraceId id) const
{
    GENCACHE_PANIC("trace {} lies past the shared key table ({} keys)",
                   id, sharedKeyCount_);
}

bool
TierPipeline::probeSharedStore(TraceId id)
{
    ++sharedStats_.probes;
    if (!sharedStore_->probe(sharedKeyOf(id), sharedProcess_)) {
        return false;
    }
    ++sharedStats_.hits;
    return true;
}

bool
TierPipeline::sharedProbe(TraceId id, TimeUs now)
{
    if (!probeSharedStore(id)) {
        return false;
    }
    ++stats_.hits;
    if (listener_ != nullptr && listener_->wantsHits()) {
        listener_->onHit(id, Generation::Shared, now);
    }
    return true;
}

bool
TierPipeline::lookup(TraceId id, TimeUs now)
{
    ++stats_.lookups;
    if (!multiTier_) {
        // Single tier: the local cache is its own residency index.
        LocalCache &cache = *tierPtrs_[0];
        if (cache.find(id) == nullptr) {
            if (sharedStore_ != nullptr && sharedProbe(id, now)) {
                return true;
            }
            ++stats_.misses;
            if (listener_ != nullptr && listener_->wantsMisses()) {
                listener_->onMiss(id, now);
            }
            return false;
        }
        ++stats_.hits;
        ++tierStats_[0].hits;
        if (cache.observesTouch()) {
            cache.touch(id, now);
        }
        if (listener_ != nullptr && listener_->wantsHits()) {
            listener_->onHit(id, labels_[0], now);
        }
        return true;
    }

    const TierId *found = where_.find(id);
    if (found == nullptr) {
        if (sharedStore_ != nullptr && sharedProbe(id, now)) {
            return true;
        }
        ++stats_.misses;
        if (listener_ != nullptr && listener_->wantsMisses()) {
            listener_->onMiss(id, now);
        }
        return false;
    }

    TierId tier = *found;
    LocalCache &cache = *tierPtrs_[tier];
    Fragment *frag = cache.find(id);
    if (frag == nullptr) {
        GENCACHE_PANIC("trace {} indexed in {} but not resident", id,
                       generationName(labels_[tier]));
    }
    ++stats_.hits;
    ++tierStats_[tier].hits;
    if (cache.observesTouch()) {
        cache.touch(id, now);
    }
    if (listener_ != nullptr && listener_->wantsHits()) {
        listener_->onHit(id, labels_[tier], now);
    }

    if ((hitObserverMask_ >> tier & 1u) != 0 &&
        edgePtrs_[tier]->onHit(*frag, now)) {
        // Eager upgrade (§5.3): the hit itself moves the fragment up.
        Fragment moving = *frag;
        cache.remove(id);
        where_.erase(id);
        syncFastSlot(moving);
        advance(tier, moving, now);
    }
    return true;
}

bool
TierPipeline::enableFastReplay(std::uint64_t id_bound)
{
    if (usedBytes_ != 0 || stats_.inserts != 0) {
        GENCACHE_PANIC("enableFastReplay on a non-empty pipeline");
    }
    for (std::size_t i = 0; i < tiers_.size(); ++i) {
        if (tierPtrs_[i]->observesTouch()) {
            return false;
        }
    }
    std::uint16_t mask = 0;
    for (std::size_t i = 0; i < edges_.size(); ++i) {
        if (!edges_[i]->observesHits()) {
            continue;
        }
        const auto *threshold =
            dynamic_cast<const ThresholdPolicy *>(edges_[i].get());
        if (threshold == nullptr || threshold->eager()) {
            return false;
        }
        mask |= static_cast<std::uint16_t>(1u << (i + 1));
    }
    if (listener_ != nullptr &&
        (listener_->wantsHits() || listener_->wantsMisses())) {
        return false;
    }
    hot_.assign(id_bound, HotSlot{});
    countMask_ = mask;
    return true;
}

void
TierPipeline::flushFastCounts()
{
    for (std::size_t id = 0; id < hot_.size(); ++id) {
        HotSlot &slot = hot_[id];
        if (slot.delta == 0) {
            continue;
        }
        Fragment *frag =
            tierPtrs_[slot.tierPlusOne - 1]->find(id);
        if (frag == nullptr) {
            GENCACHE_PANIC("fast-replay slot for trace {} points at "
                           "{} but the trace is not resident", id,
                           generationName(
                               labels_[slot.tierPlusOne - 1]));
        }
        frag->accessCount += slot.delta;
        slot.delta = 0;
    }
}

bool
TierPipeline::insert(TraceId id, std::uint32_t size_bytes,
                     ModuleId module, TimeUs now)
{
    LocalCache &first = *tierPtrs_[0];
    if (multiTier_ ? where_.contains(id) : first.find(id) != nullptr) {
        GENCACHE_PANIC("insert of resident trace {}", id);
    }
    Fragment frag;
    frag.id = id;
    frag.sizeBytes = size_bytes;
    frag.module = module;
    frag.insertTime = now;
    if ((entryTrackerMask_ & 1u) != 0) {
        edgePtrs_[0]->onEnter(frag, now);
    }

    std::vector<Fragment> &evicted = evictScratch_[0];
    evicted.clear();
    if (!first.insert(frag, evicted)) {
        ++stats_.placementFailures;
        return false;
    }
    ++stats_.inserts;
    stats_.insertedBytes += size_bytes;
    usedBytes_ += size_bytes;

    if (!multiTier_) {
        // Single-tier (unified) event order: capacity victims are
        // reported before the insert, and the insert event carries
        // the in-cache fragment (with its placement address).
        for (Fragment &victim : evicted) {
            destroy(victim, TierId{0}, EvictReason::Capacity, now);
        }
        setFastSlot(id, TierId{0});
        if (listener_ != nullptr) {
            listener_->onInsert(*first.find(id), labels_[0], now);
        }
        return true;
    }

    where_.insert(id, TierId{0});
    setFastSlot(id, TierId{0});
    if (listener_ != nullptr) {
        listener_->onInsert(frag, labels_[0], now);
    }
    for (Fragment &victim : evicted) {
        cascadeVictim(TierId{0}, victim, now);
    }
    return true;
}

void
TierPipeline::cascadeVictim(TierId tier, Fragment victim, TimeUs now)
{
    syncFastSlot(victim);
    if (!hasEdgeOut(tier)) {
        // Last-tier victims are deleted.
        destroy(victim, tier, EvictReason::Capacity, now);
        return;
    }
    if (edgePtrs_[tier]->admitOnEviction(victim, now)) {
        advance(tier, victim, now);
    } else {
        // Figure 8: the victim leaves without earning promotion.
        ++stats_.probationRejections;
        destroy(victim, tier, EvictReason::Rejected, now);
    }
}

void
TierPipeline::advance(TierId from, Fragment frag, TimeUs now)
{
    TierId to = from + 1;
    frag.insertTime = now;
    if (specs_[from].pins == PinHandling::Shed) {
        frag.pinned = false;
    }
    if ((entryTrackerMask_ >> to & 1u) != 0) {
        edgePtrs_[to]->onEnter(frag, now);
    }

    std::vector<Fragment> &evicted = evictScratch_[to];
    evicted.clear();
    if (!tierPtrs_[to]->insert(frag, evicted)) {
        ++stats_.placementFailures;
        destroy(frag, from, EvictReason::Capacity, now);
        return;
    }
    where_.set(frag.id, to);
    setFastSlot(frag.id, to);
    ++stats_.promotions;
    stats_.promotedBytes += frag.sizeBytes;
    ++tierStats_[from].promotionsOut;
    ++tierStats_[to].promotionsIn;
    if (listener_ != nullptr) {
        listener_->onEvict(frag, labels_[from],
                           EvictReason::PromotionMove, now);
        listener_->onPromote(frag, labels_[from], labels_[to], now);
    }
    for (Fragment &victim : evicted) {
        cascadeVictim(to, victim, now);
    }
}

void
TierPipeline::destroy(const Fragment &frag, TierId tier,
                      EvictReason reason, TimeUs now)
{
    // A last-tier capacity victim earned its way through every
    // promotion filter; with a shared tier mounted that is exactly
    // the promotion into shared memory. Anonymous code (no module
    // uid in the canonical id) stays private, and Rejected/Unmap
    // victims never publish — they were filtered out or their module
    // is going away.
    if (sharedStore_ != nullptr && reason == EvictReason::Capacity &&
        tier + 1u == tiers_.size() &&
        traceIdUid(sharedKeyOf(frag.id)) != kNoModuleUid) {
        ++sharedStats_.publishes;
        switch (sharedStore_->publish(sharedKeyOf(frag.id),
                                      frag.sizeBytes,
                                      sharedProcess_)) {
          case SharedCodeStore::PublishResult::Inserted:
            ++sharedStats_.publishedInserts;
            break;
          case SharedCodeStore::PublishResult::Attached:
            ++sharedStats_.publishedAttaches;
            break;
          case SharedCodeStore::PublishResult::AlreadyAttached:
            ++sharedStats_.publishedDuplicates;
            break;
          case SharedCodeStore::PublishResult::Rejected:
            ++sharedStats_.publishedRejects;
            break;
        }
    }
    if (multiTier_) {
        where_.erase(frag.id);
    }
    clearFastSlot(frag.id);
    ++stats_.deletions;
    stats_.deletedBytes += frag.sizeBytes;
    usedBytes_ -= frag.sizeBytes;
    ++tierStats_[tier].deletions;
    if (listener_ != nullptr) {
        listener_->onEvict(frag, labels_[tier], reason, now);
    }
}

void
TierPipeline::invalidateModule(ModuleId module, TimeUs now)
{
    std::vector<Fragment> removed;
    for (std::size_t tier = 0; tier < tiers_.size(); ++tier) {
        removed.clear();
        tiers_[tier]->removeModule(module, removed);
        for (Fragment &frag : removed) {
            if (multiTier_) {
                where_.erase(frag.id);
            }
            syncFastSlot(frag);
            ++stats_.unmapDeletions;
            stats_.unmapDeletedBytes += frag.sizeBytes;
            usedBytes_ -= frag.sizeBytes;
            ++tierStats_[tier].deletions;
            if (listener_ != nullptr) {
                listener_->onEvict(frag, labels_[tier],
                                   EvictReason::Unmap, now);
            }
        }
    }
    // Completion marker: every Unmap eviction of this module has been
    // delivered (temporal checkers key unload completeness on it).
    if (listener_ != nullptr) {
        listener_->onModuleUnload(module, now);
    }
    // Cross-process completeness: this process unmapping the module
    // invalidates its traces for the whole fleet (conservative — any
    // other process still running the DLL will republish on its next
    // last-tier eviction of the remapped image).
    if (sharedStore_ != nullptr) {
        auto uid = sharedModuleUids_.find(module);
        if (uid != sharedModuleUids_.end()) {
            sharedStore_->invalidateModule(uid->second);
            ++sharedStats_.invalidationsForwarded;
        }
    }
}

void
TierPipeline::mountSharedStore(SharedCodeStore *store, unsigned process)
{
    if (store == nullptr) {
        GENCACHE_PANIC("mountSharedStore(nullptr)");
    }
    if (sharedStore_ != nullptr) {
        GENCACHE_PANIC("pipeline {} already mounts a shared store",
                       name_);
    }
    if (usedBytes_ != 0 || stats_.inserts != 0) {
        GENCACHE_PANIC("mountSharedStore on a non-empty pipeline");
    }
    if (process >= store->processLimit()) {
        fatal("process index {} exceeds shared-store limit {}",
              process, store->processLimit());
    }
    sharedStore_ = store;
    sharedProcess_ = process;
}

void
TierPipeline::setSharedModuleUid(ModuleId module, ModuleUid uid)
{
    if (uid == kNoModuleUid) {
        sharedModuleUids_.erase(module);
        return;
    }
    sharedModuleUids_[module] = uid;
}

bool
TierPipeline::setPinned(TraceId id, bool pinned)
{
    if (!multiTier_) {
        return tierPtrs_[0]->setPinned(id, pinned);
    }
    const TierId *found = where_.find(id);
    if (found == nullptr) {
        return false;
    }
    return tierPtrs_[*found]->setPinned(id, pinned);
}

bool
TierPipeline::contains(TraceId id) const
{
    if (!multiTier_) {
        return tierPtrs_[0]->contains(id);
    }
    return where_.contains(id);
}

void
TierPipeline::prepareDenseIds(std::uint64_t id_bound)
{
    if (multiTier_) {
        where_.reserveDense(id_bound);
    }
    for (auto &tier : tiers_) {
        tier->reserveDenseIds(id_bound);
    }
}

std::uint64_t
TierPipeline::totalCapacity() const
{
    std::uint64_t total = 0;
    for (const auto &tier : tiers_) {
        total += tier->capacity();
    }
    return total;
}

std::uint64_t
TierPipeline::usedBytes() const
{
    // Maintained incrementally (+insert, -destroy/-unmap; promotions
    // net zero) so replay peak tracking is O(1) per observation.
    return usedBytes_;
}

std::size_t
TierPipeline::tierOf(TraceId id) const
{
    if (!multiTier_) {
        if (!tierPtrs_[0]->contains(id)) {
            GENCACHE_PANIC("tierOf: trace {} not resident", id);
        }
        return 0;
    }
    const TierId *found = where_.find(id);
    if (found == nullptr) {
        GENCACHE_PANIC("tierOf: trace {} not resident", id);
    }
    return *found;
}

void
TierPipeline::validate() const
{
    std::uint64_t summed = 0;
    for (const auto &tier : tiers_) {
        summed += tier->usedBytes();
    }
    if (summed != usedBytes_) {
        GENCACHE_PANIC("incremental usedBytes {} but tiers hold {}",
                       usedBytes_, summed);
    }
    if (!hot_.empty()) {
        std::size_t occupied = 0;
        for (const HotSlot &slot : hot_) {
            occupied += slot.tierPlusOne != 0 ? 1 : 0;
        }
        std::size_t resident = 0;
        for (std::size_t tier = 0; tier < tiers_.size(); ++tier) {
            resident += tiers_[tier]->fragmentCount();
            tiers_[tier]->forEach([&](const Fragment &frag) {
                if (frag.id >= hot_.size() ||
                    hot_[frag.id].tierPlusOne != tier + 1) {
                    GENCACHE_PANIC(
                        "fast-replay slot disagrees with residency "
                        "for trace {} in {}", frag.id,
                        generationName(labels_[tier]));
                }
            });
        }
        if (occupied != resident) {
            GENCACHE_PANIC("fast-replay sidecar tracks {} traces but "
                           "caches hold {}", occupied, resident);
        }
    }
    if (!multiTier_) {
        if (where_.size() != 0) {
            GENCACHE_PANIC("single-tier pipeline carries a residency "
                           "index ({} entries)", where_.size());
        }
        return;
    }
    std::size_t resident = 0;
    for (std::size_t tier = 0; tier < tiers_.size(); ++tier) {
        const LocalCache &cache = *tiers_[tier];
        resident += cache.fragmentCount();
        cache.forEach([&](const Fragment &frag) {
            const TierId *found = where_.find(frag.id);
            if (found == nullptr || *found != tier) {
                GENCACHE_PANIC("trace {} resident in {} but indexed "
                               "elsewhere", frag.id,
                               generationName(labels_[tier]));
            }
        });
    }
    if (resident != where_.size()) {
        GENCACHE_PANIC("index holds {} traces but caches hold {}",
                       where_.size(), resident);
    }
}

// --- topology catalog ---

std::unique_ptr<PromotionPolicy>
EdgeSpec::make() const
{
    switch (rule) {
      case Rule::AlwaysPromote:
        return std::make_unique<AlwaysPromotePolicy>();
      case Rule::AlwaysDelete:
        return std::make_unique<AlwaysDeletePolicy>();
      case Rule::Threshold:
        return std::make_unique<ThresholdPolicy>(threshold, eager);
      case Rule::Temperature:
        return std::make_unique<TemperaturePolicy>(threshold,
                                                   halfLifeUs, eager);
    }
    GENCACHE_PANIC("unknown edge rule {}", static_cast<int>(rule));
}

std::vector<TierSpec>
TierTopology::tierSpecs(std::uint64_t total_bytes) const
{
    if (fractions.empty()) {
        fatal("topology {} has no tiers", name);
    }
    if (edges.size() != fractions.size() - 1) {
        fatal("topology {} needs {} edges (got {})", name,
              fractions.size() - 1, edges.size());
    }
    if (total_bytes < fractions.size()) {
        fatal("topology {}: {} bytes cannot hold {} tiers", name,
              total_bytes, fractions.size());
    }
    std::vector<TierSpec> specs(fractions.size());
    std::uint64_t assigned = 0;
    for (std::size_t i = 0; i + 1 < fractions.size(); ++i) {
        if (fractions[i] <= 0.0) {
            fatal("topology {}: tier {} fraction must be positive",
                  name, i);
        }
        std::uint64_t bytes = static_cast<std::uint64_t>(std::llround(
            static_cast<double>(total_bytes) * fractions[i]));
        if (bytes == 0) {
            bytes = 1;
        }
        specs[i] = TierSpec{bytes, policy, pins};
        assigned += bytes;
    }
    if (fractions.back() <= 0.0) {
        fatal("topology {}: tier {} fraction must be positive", name,
              fractions.size() - 1);
    }
    if (assigned >= total_bytes) {
        fatal("topology {}: fractions leave no space for the last "
              "tier", name);
    }
    // The last tier absorbs the rounding remainder so the pipeline's
    // capacity is exactly the requested budget.
    specs.back() = TierSpec{total_bytes - assigned, policy, pins};
    return specs;
}

std::unique_ptr<TierPipeline>
TierTopology::build(std::uint64_t total_bytes) const
{
    TierPipelineInit init;
    init.name = format("{} ({})", name, humanBytes(total_bytes));
    init.tiers = tierSpecs(total_bytes);
    init.edges.reserve(edges.size());
    for (const EdgeSpec &edge : edges) {
        init.edges.push_back(edge.make());
    }
    return std::make_unique<TierPipeline>(std::move(init));
}

const std::vector<TierTopology> &
namedTierTopologies()
{
    static const std::vector<TierTopology> catalog = [] {
        std::vector<TierTopology> entries;

        // Two tiers, no victim filter: the nursery's evictees must
        // have been hit once to earn a persistent slot.
        TierTopology two;
        two.name = "2tier";
        two.fractions = {0.50, 0.50};
        two.edges = {EdgeSpec{EdgeSpec::Rule::Threshold, 1, false, 0}};
        entries.push_back(std::move(two));

        // Four tiers: a deeper probation path with a rising
        // threshold, so traces must prove themselves twice before
        // reaching the persistent cache.
        TierTopology four;
        four.name = "4tier";
        four.fractions = {0.40, 0.15, 0.15, 0.30};
        four.edges = {
            EdgeSpec{EdgeSpec::Rule::AlwaysPromote, 1, false, 0},
            EdgeSpec{EdgeSpec::Rule::Threshold, 1, false, 0},
            EdgeSpec{EdgeSpec::Rule::Threshold, 2, false, 0},
        };
        entries.push_back(std::move(four));

        // The paper's 45/10/45 shape with a TRRIP-style temperature
        // filter on the probation edge: two *recent* hits promote,
        // with a 250 ms half-life cooling old activity.
        TierTopology temp;
        temp.name = "temp3";
        temp.fractions = {0.45, 0.10, 0.45};
        temp.edges = {
            EdgeSpec{EdgeSpec::Rule::AlwaysPromote, 1, false, 0},
            EdgeSpec{EdgeSpec::Rule::Temperature, 2, false, 250'000},
        };
        entries.push_back(std::move(temp));

        return entries;
    }();
    return catalog;
}

const TierTopology *
findTierTopology(std::string_view name)
{
    for (const TierTopology &topology : namedTierTopologies()) {
        if (topology.name == name) {
            return &topology;
        }
    }
    return nullptr;
}

} // namespace gencache::cache
