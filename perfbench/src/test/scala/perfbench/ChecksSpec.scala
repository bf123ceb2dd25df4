package perfbench

import org.scalatest.funsuite.AnyFunSuite
import repro.baselines.BruteForce
import repro.core.Pattern._
import repro.core._

import scala.util.Random

/** The benchmark's checks must accept Cogra's right answers and reject
  * wrong ones; a check that always passes would hide a broken program. */
class ChecksSpec extends AnyFunSuite {

  private val seqAB = seq(plus(tp("A")), tp("B"))
  private val win = WindowSpec(12, 6)

  private def stream(n: Int, seed: Int, types: Seq[String]): Array[Ev] = {
    val r = new Random(seed)
    Array.tabulate(n)(i =>
      Ev(i.toLong, i.toLong, types(r.nextInt(types.size)), s"g${r.nextInt(3)}",
         math.round(r.nextGaussian() * 50).toDouble))
  }

  /** Cogra's own answer per (group, window), from the program's windowing. */
  private def cograRows(evs: Array[Ev], q: TrendQuery): Seq[WinResult] =
    evs.toSeq.flatMap(e => q.window.windowsOf(e.time).map(w => ((e.group, w), e)))
      .groupMap(_._1)(_._2).toSeq.map { case ((g, w), sub) =>
        val a = Cogra.run(sub.sorted(Ev.ordering), q)
        WinResult(g, w, a.count, a.countE, a.sum, a.min, a.max, a.avg)
      }

  private def anyQuery(preds: Seq[AdjPred]) = TrendQuery(seqAB, Semantics.ANY, preds, Some("B"), win)
  private val nextQuery = TrendQuery(plus(seqAB), Semantics.NEXT, Nil, Some("B"), win)

  test("windowsCovering agrees with WindowSpec.windowsOf") {
    for (size <- 1L to 9L; slide <- 1L to size; t <- 0L to 40L)
      assert(Checks.windowsCovering(t, size, slide) == WindowSpec(size, slide).windowsOf(t).toList)
  }

  test("the closed form equals the declarative Definition 2 on small substreams") {
    for (seed <- 1 to 20) {
      val evs = stream(14, seed, Seq("A", "A", "B", "C"))
      val want = Checks.typeClosedForm(evs, evs.indices.toArray)
      val got = BruteForce.evaluate(evs.toIndexedSeq, TrendQuery.local(seqAB, Semantics.ANY, Nil, Some("B")))
      assert(got.count == want.count && got.countE == want.countE)
      assert(math.abs(got.sum - want.sum) <= want.sumTol + 1e-9)
      assert(got.min == want.min && got.max == want.max)
    }
  }

  test("a count of 2^53 or more never matches") {
    val evs = Array.tabulate(54)(i => Ev(i.toLong, i.toLong, if (i < 53) "A" else "B", "g", 1.0))
    assert(Checks.typeClosedForm(evs, evs.indices.toArray).count.isNaN)
  }

  private val cases: Seq[(String, TrendQuery, Array[Ev] => Map[Checks.Key, Want])] = Seq(
    ("closed form", anyQuery(Nil),
      evs => Checks.typeClosedForms(evs, Checks.substreams(evs, win.size, win.slide))),
    ("GRETA", anyQuery(Seq(AdjPred.Cmp("A", "A", "<"))),
      evs => Checks.greta(evs, Checks.substreams(evs, win.size, win.slide), anyQuery(Seq(AdjPred.Cmp("A", "A", "<"))), 2)),
    ("SASE, last micro-batch", nextQuery,
      evs => Checks.saseByBatch(evs, Checks.substreams(evs, win.size, win.slide), _ => 0, 1, nextQuery)(0)))

  for ((name, q, reference) <- cases) {
    val evs = stream(60, 7, Seq("A", "A", "B", "C"))
    lazy val want = reference(evs)
    lazy val right = cograRows(evs, q)
    def wrong(f: WinResult => WinResult): Seq[WinResult] = {
      val i = right.indexWhere(r => r.count > 1 && r.min != r.max)
      assert(i >= 0, "no row to corrupt")
      right.updated(i, f(right(i)))
    }

    test(s"$name: Cogra's rows pass") {
      assert(want.size == right.size)
      assert(Checks.compare(right, want).isEmpty)
    }
    test(s"$name: a count off by one fails") {
      assert(Checks.compare(wrong(r => r.copy(count = r.count + 1)), want).nonEmpty)
      assert(Checks.compare(wrong(r => r.copy(countE = r.countE - 1)), want).nonEmpty)
    }
    test(s"$name: a missing (group, window) fails") {
      assert(Checks.compare(right.tail, want).exists(_.contains("missing")))
    }
    test(s"$name: a duplicate or unexpected row fails") {
      assert(Checks.compare(right :+ right.head, want).exists(_.contains("duplicate")))
      assert(Checks.compare(right :+ right.head.copy(wid = 1000), want).exists(_.contains("unexpected")))
    }
    test(s"$name: a swapped MIN and MAX fails") {
      assert(Checks.compare(wrong(r => r.copy(min = r.max, max = r.min)), want).nonEmpty)
    }
    test(s"$name: a wrong SUM fails") {
      assert(Checks.compare(wrong(r => r.copy(sum = r.sum + 1)), want).nonEmpty)
    }
  }

  test("SASE rows per micro-batch equal Cogra fed the prefix up to that batch") {
    val evs = stream(60, 11, Seq("A", "A", "B", "C"))
    val batchOf = (i: Int) => i / 20
    val subs = Checks.substreams(evs, win.size, win.slide)
    val byBatch = Checks.saseByBatch(evs, subs, batchOf, 3, nextQuery)
    for (b <- 0 until 3) {
      val touched = subs.filter(_._2.exists(batchOf(_) == b))
      assert(byBatch(b).keySet == touched.keySet)
      for ((k, idx) <- touched) {
        val a = Cogra.run(idx.filter(batchOf(_) <= b).map(evs), nextQuery)
        val row = WinResult(k._1, k._2, a.count, a.countE, a.sum, a.min, a.max, a.avg)
        assert(Checks.mismatch(row, byBatch(b)(k)).isEmpty, s"$k batch $b")
        assert(Checks.mismatch(row.copy(count = a.count + 1), byBatch(b)(k)).nonEmpty)
      }
    }
  }
}
