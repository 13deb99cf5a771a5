/**
 * @file
 * Assembler tests: parsing every instruction form, directives,
 * error handling, full disassemble -> assemble round trips over the
 * real application kernels, and execution equivalence of an assembled
 * kernel.
 */

#include <cstring>

#include <gtest/gtest.h>

#include "apps/matmul/gemm.h"
#include "apps/spmv/kernels.h"
#include "apps/tridiag/cyclic_reduction.h"
#include "funcsim/interpreter.h"
#include "isa/assembler.h"
#include "isa/disasm.h"
#include "expect_sim_error.h"

namespace gpuperf {
namespace isa {
namespace {

TEST(Assembler, ParsesDirectivesAndBasicOps)
{
    Kernel k = assemble(R"(
        .kernel demo
        .shared 256
        movi $r0, 42
        iadd $r1, $r0, 8       // immediate form
        iadd $r2, $r1, $r0     // register form
        mul $r3, $r2, $r0
        rcp $r4, $r3
        exit
    )");
    EXPECT_EQ(k.name(), "demo");
    EXPECT_EQ(k.sharedBytes(), 256);
    EXPECT_EQ(k.numRegisters(), 5);
    EXPECT_EQ(k.instructions()[0].op, Opcode::kMovImm);
    EXPECT_EQ(k.instructions()[1].imm, 8);
    EXPECT_TRUE(k.instructions()[1].useImm);
    EXPECT_FALSE(k.instructions()[2].useImm);
    EXPECT_EQ(k.instructions()[3].op, Opcode::kFmul);
}

TEST(Assembler, ParsesMemoryAndPredicates)
{
    Kernel k = assemble(R"(
        s2r $r0, %tid
        shl $r1, $r0, 2
        lds $r2, smem[$r1+4]
        sts smem[$r1], $r2
        ldg $r3, gmem[$r1+4096]
        stg gmem[$r1+8192], $r3
        ldt $r4, gmem[$r1]
        mad.s $r4, $r2, smem[$r1+64], $r4
        setp.i.lt $p0, $r0, 16
        @$p0 if
        movi $r5, 1
        else
        movi $r5, 2
        endif
        loop
        setp.i.ge $p1, $r5, 3
        @!$p1 brk
        endloop
        bar.sync
    )");
    const auto &ins = k.instructions();
    EXPECT_EQ(ins[2].op, Opcode::kLds);
    EXPECT_EQ(ins[2].imm, 4);
    EXPECT_EQ(ins[4].op, Opcode::kLdg);
    EXPECT_EQ(ins[4].imm, 4096);
    EXPECT_EQ(ins[6].op, Opcode::kLdt);
    EXPECT_EQ(ins[7].op, Opcode::kFmadS);
    EXPECT_EQ(ins[7].imm, 64);
    EXPECT_EQ(ins[8].cmp, CmpOp::kLt);
    EXPECT_EQ(ins[9].op, Opcode::kIf);
    EXPECT_EQ(ins[9].pred, 0);
    EXPECT_FALSE(ins[9].predNegate);
    // @!$p1 brk
    const Instruction &brk = ins[16];
    EXPECT_EQ(brk.op, Opcode::kBrk);
    EXPECT_TRUE(brk.predNegate);
    EXPECT_EQ(brk.pred, 1);
    EXPECT_EQ(k.numPredicates(), 2);
}

TEST(Assembler, AcceptsDisassemblyIndexPrefixes)
{
    Kernel k = assemble("   0:  movi $r0, 1\n   1:  exit\n");
    EXPECT_EQ(k.instructions()[0].op, Opcode::kMovImm);
}

TEST(AssemblerErrors, RejectsGarbage)
{
    EXPECT_SIM_ERROR(assemble("frobnicate $r0, $r1\n"), "unknown mnemonic");
    EXPECT_SIM_ERROR(assemble("movi $r0 42\n"), "expected ','");
    EXPECT_SIM_ERROR(assemble(".bogus 1\n"), "unknown directive");
    EXPECT_SIM_ERROR(assemble("movi $r0, 1 junk\n"), "trailing");
}

/** Round trip: disassemble -> assemble -> disassemble must be stable. */
void
expectRoundTrip(const Kernel &k)
{
    const std::string text = toAssembly(k);
    Kernel k2 = assemble(text);
    ASSERT_EQ(k2.instructions().size(), k.instructions().size());
    for (size_t i = 0; i < k.instructions().size(); ++i) {
        EXPECT_EQ(disassemble(k.instructions()[i]),
                  disassemble(k2.instructions()[i]))
            << "instruction " << i;
    }
    EXPECT_EQ(k2.sharedBytes(), k.sharedBytes());
    EXPECT_EQ(k2.numRegisters(), k.numRegisters());
}

TEST(Assembler, RoundTripsGemmKernel)
{
    funcsim::GlobalMemory gmem(16 << 20);
    apps::GemmProblem p = apps::makeGemmProblem(gmem, 128, 16);
    expectRoundTrip(apps::makeGemmKernel(p));
}

TEST(Assembler, RoundTripsCyclicReductionKernel)
{
    funcsim::GlobalMemory gmem(16 << 20);
    apps::TridiagProblem p = apps::makeTridiagProblem(gmem, 64, 1, true);
    expectRoundTrip(apps::makeCyclicReductionKernel(p));
}

TEST(Assembler, RoundTripsSpmvKernels)
{
    apps::BlockSparseMatrix m = apps::makeBandedBlockMatrix(64, 5, 8);
    funcsim::GlobalMemory gmem(32 << 20);
    apps::SpmvVectors v = apps::makeVectors(gmem, m);
    apps::EllDeviceMatrix ell = apps::buildEll(gmem, m);
    expectRoundTrip(apps::makeEllKernel(ell, v, true));
    apps::BellDeviceMatrix bell = apps::buildBell(gmem, m, true);
    expectRoundTrip(apps::makeBellKernel(bell, v, true, false));
}

TEST(Assembler, AssembledKernelExecutesIdentically)
{
    // Solve small tridiagonal systems from source-assembled code and
    // compare against the builder-produced kernel's numerics.
    funcsim::GlobalMemory g1(8 << 20);
    funcsim::GlobalMemory g2(8 << 20);
    apps::TridiagProblem p1 = apps::makeTridiagProblem(g1, 64, 2, false);
    apps::TridiagProblem p2 = apps::makeTridiagProblem(g2, 64, 2, false);
    Kernel original = apps::makeCyclicReductionKernel(p1);
    Kernel reassembled = assemble(toAssembly(original));

    funcsim::FunctionalSimulator sim(arch::GpuSpec::gtx285());
    sim.run(original, p1.launch(), g1);
    sim.run(reassembled, p2.launch(), g2);

    const float *x1 = g1.f32(p1.xBase);
    const float *x2 = g2.f32(p2.xBase);
    for (int i = 0; i < p1.n * p1.systems; ++i)
        EXPECT_EQ(x1[i], x2[i]) << i;
}

TEST(Assembler, HandwrittenKernelRuns)
{
    // out[tid] = tid * 2 written directly in assembly.
    Kernel k = assemble(R"(
        .kernel double_tid
        s2r $r0, %tid
        iadd $r1, $r0, $r0
        i2f $r2, $r1
        shl $r3, $r0, 2
        iadd $r3, $r3, 4096
        stg gmem[$r3], $r2
    )");
    funcsim::GlobalMemory gmem(1 << 20);
    funcsim::FunctionalSimulator sim(arch::GpuSpec::gtx285());
    sim.run(k, {1, 32}, gmem);
    for (int i = 0; i < 32; ++i)
        EXPECT_FLOAT_EQ(gmem.f32(4096)[i], 2.0f * i);
}

} // namespace
} // namespace isa
} // namespace gpuperf
