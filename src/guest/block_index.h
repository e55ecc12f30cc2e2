/**
 * @file
 * Dense block index and predecoded code streams for the runtime's
 * front end.
 *
 * Resolving a program counter through the address space's module and
 * block maps costs two ordered-map lookups, and walking
 * `isa::Instruction` vectors pays an out-of-line `opcodeSize()` call
 * per instruction, every time a block executes. The BlockIndex
 * lowers each mapped module once, at map time, into:
 *
 *  - a *dense block id* (`BlockId`): a flat, monotonically growing
 *    integer per basic block, so hot per-block state (dispatch table,
 *    bb-cache presence, trace-head counters) becomes a vector read;
 *  - a *predecoded instruction stream*: one contiguous array of
 *    `PredecodedInst` records with the instruction address and
 *    fall-through address precomputed, so the interpreter's hot loop
 *    touches no out-of-line size tables.
 *
 * Lookup from a guest address is exact and O(1): each mapped module
 * contributes a byte-offset table (one `BlockId` slot per code byte,
 * `kInvalidBlockId` for non-block-start bytes) plus a most-recently-
 * used range hint, since consecutive lookups overwhelmingly stay in
 * one module. Ids are never reused: unmapping a module retires its id
 * range (the metadata stays, marked unowned), which lets the runtime
 * invalidate per-block state with a single range sweep.
 */

#ifndef GENCACHE_GUEST_BLOCK_INDEX_H
#define GENCACHE_GUEST_BLOCK_INDEX_H

#include <cstdint>
#include <vector>

#include "guest/module.h"

namespace gencache::guest {

/** Dense id of a basic block in the address-space-wide index. */
using BlockId = std::uint32_t;

/** Sentinel for "no block". */
constexpr BlockId kInvalidBlockId = ~0u;

/** One predecoded guest instruction: the `isa::Instruction` fields
 *  plus the precomputed instruction address and fall-through address,
 *  so the execution loop never calls `opcodeSize()`. */
struct PredecodedInst
{
    isa::GuestAddr addr = 0;        ///< guest address of this inst
    isa::GuestAddr fallThrough = 0; ///< addr + encoded size
    isa::GuestAddr target = 0;      ///< direct control-flow target
    std::int64_t imm = 0;           ///< immediate operand
    isa::Opcode opcode = isa::Opcode::Nop;
    std::uint8_t dst = 0;
    std::uint8_t src1 = 0;
    std::uint8_t src2 = 0;
};

/** Per-block metadata of the dense index. */
struct BlockMeta
{
    std::uint32_t instBegin = 0; ///< first inst in the code stream
    std::uint32_t instEnd = 0;   ///< one past the last inst
    isa::GuestAddr startAddr = 0;
    std::uint32_t sizeBytes = 0;
    ModuleId module = kInvalidModule; ///< kInvalidModule once retired
};

/** Address-space-wide dense block index + predecoded code stream. */
class BlockIndex
{
  public:
    BlockIndex() = default;

    /** Lower @p module into the index, assigning one contiguous run
     *  of fresh block ids (in block address order). */
    void addModule(const GuestModule &module);

    /** Retire @p module's id range: its ids stop resolving and their
     *  metadata is marked unowned. Ids are never reused. */
    void removeModule(ModuleId module);

    /** @return the dense id of the block starting exactly at @p addr
     *  in a mapped module, or kInvalidBlockId. O(1). */
    BlockId blockIdAt(isa::GuestAddr addr) const
    {
        const Range *range = rangeOf(addr);
        if (range == nullptr) {
            return kInvalidBlockId;
        }
        return range->offsetToId[addr - range->base];
    }

    /** Metadata of block @p id (valid for any id below blockLimit). */
    const BlockMeta &meta(BlockId id) const { return meta_[id]; }

    /** First predecoded instruction of block @p id. */
    const PredecodedInst *instBegin(BlockId id) const
    {
        return code_.data() + meta_[id].instBegin;
    }

    /** One past the last predecoded instruction of block @p id. */
    const PredecodedInst *instEnd(BlockId id) const
    {
        return code_.data() + meta_[id].instEnd;
    }

    /** One past the largest id ever assigned (monotone: grows on
     *  addModule, never shrinks). Per-block side tables size to it. */
    BlockId blockLimit() const
    {
        return static_cast<BlockId>(meta_.size());
    }

    /**
     * The id range [first, last) assigned to mapped module @p module.
     * @return false when the module is not currently indexed.
     */
    bool moduleRange(ModuleId module, BlockId &first,
                     BlockId &last) const;

    /** Number of currently mapped (non-retired) blocks. */
    std::size_t liveBlockCount() const;

  private:
    /** Per-mapped-module lookup table: one BlockId slot per code
     *  byte, exact block starts only. */
    struct Range
    {
        isa::GuestAddr base = 0;
        isa::GuestAddr end = 0;
        ModuleId module = kInvalidModule;
        BlockId firstId = kInvalidBlockId;
        BlockId lastId = kInvalidBlockId; ///< one past the last id
        std::vector<BlockId> offsetToId;
    };

    const Range *rangeOf(isa::GuestAddr addr) const
    {
        if (hint_ < ranges_.size()) {
            const Range &hinted = ranges_[hint_];
            if (addr >= hinted.base && addr < hinted.end) {
                return &hinted;
            }
        }
        for (std::size_t i = 0; i < ranges_.size(); ++i) {
            if (addr >= ranges_[i].base && addr < ranges_[i].end) {
                hint_ = i;
                return &ranges_[i];
            }
        }
        return nullptr;
    }

    std::vector<PredecodedInst> code_;
    std::vector<BlockMeta> meta_;
    std::vector<Range> ranges_;
    mutable std::size_t hint_ = 0;
};

} // namespace gencache::guest

#endif // GENCACHE_GUEST_BLOCK_INDEX_H
