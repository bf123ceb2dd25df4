package perfbench

import repro.baselines.{Budget, Greta, Sase}
import repro.core.{Ev, TrendQuery, WinResult}

import java.util.concurrent.{Executors, TimeUnit}
import scala.collection.mutable
import scala.concurrent.duration.Duration
import scala.concurrent.{Await, ExecutionContext, Future}

/** What one (group, window) result must hold. `countRel` is the relative
  * tolerance on COUNT(*) and COUNT(E) (0 = exact); a NaN `sumTol` skips SUM. */
final case class Want(count: Double, countE: Double, sum: Double, sumTol: Double,
                      min: Double, max: Double, countRel: Double)

object Want {
  /** The result another run of Cogra gave, to be matched exactly but for
    * the rounding of SUM. */
  def of(r: WinResult): Want =
    Want(r.count, r.countE, r.sum, 1e-9 * math.max(1.0, math.abs(r.sum)), r.min, r.max, 0.0)
}

/** Reference results computed apart from Cogra, and the comparison of each
  * operation's output with them. None of it calls Cogra's windowing or
  * aggregators. */
object Checks {
  type Key = (String, Long)

  /** The baselines abort past a budget; a reference must not. */
  private val noBudget = Budget(Long.MaxValue, Long.MaxValue, 600000L)

  /** Window starts covering `t` by Definition 6: every `k * slide`, k >= 0,
    * with `k * slide <= t < k * slide + size`. */
  def windowsCovering(t: Long, size: Long, slide: Long): List[Long] = {
    require(t >= 0, s"negative timestamp $t")
    var k = t / slide
    var out = List.empty[Long]
    while (k >= 0 && k * slide + size > t) { out = (k * slide) :: out; k -= 1 }
    out
  }

  /** Indices into `evs`, which is in (time, sid) order, of the events of
    * every (group, window) substream. */
  def substreams(evs: Array[Ev], size: Long, slide: Long): Map[Key, Array[Int]] = {
    val subs = mutable.HashMap.empty[Key, mutable.ArrayBuilder.ofInt]
    for (i <- evs.indices; wid <- windowsCovering(evs(i).time, size, slide))
      subs.getOrElseUpdate((evs(i).group, wid), new mutable.ArrayBuilder.ofInt) += i
    subs.iterator.map { case (k, b) => k -> b.result() }.toMap
  }

  /** Closed form of `SEQ(A+, B)` under ANY without predicates, target B:
    * a B preceded by `a` A events ends `2^a - 1` trends, so COUNT(*) =
    * COUNT(B) = sum of `2^a_b - 1`, SUM = sum of `v_b * (2^a_b - 1)`, and
    * MIN/MAX are the extremes of the B values with an earlier A. A count of
    * 2^53 or more has no exact Double, so it can never match. */
  def typeClosedForm(evs: Array[Ev], idx: Array[Int]): Want = {
    var a = 0
    var count = 0L
    var overflow = false
    var sum, scale = 0.0
    var min = Double.PositiveInfinity
    var max = Double.NegativeInfinity
    for (i <- idx) evs(i).etype match {
      case "A" => a += 1
      case "B" if a > 0 =>
        if (a >= 53) overflow = true
        else {
          val c = (1L << a) - 1
          count += c
          val v = evs(i).value
          sum += v * c.toDouble
          scale += math.abs(v) * c.toDouble
          min = math.min(min, v)
          max = math.max(max, v)
        }
      case _ =>
    }
    val exact = if (overflow || count >= (1L << 53)) Double.NaN else count.toDouble
    Want(exact, exact, sum, 1e-12 * scale, min, max, 0.0)
  }

  def typeClosedForms(evs: Array[Ev], subs: Map[Key, Array[Int]]): Map[Key, Want] =
    subs.map { case (k, idx) => k -> typeClosedForm(evs, idx) }

  /** GRETA's event graph on every substream: counts agree to 1e-9 relative
    * (as `Experiments.assertCountsAgree`), MIN and MAX exactly, SUM to 1e-9
    * of the largest possible term sum. Runs on `threads` threads. */
  def greta(evs: Array[Ev], subs: Map[Key, Array[Int]], q: TrendQuery, threads: Int): Map[Key, Want] =
    parallel(subs.toSeq, threads) { case (k, idx) =>
      val sub = idx.map(evs).toIndexedSeq
      val r = Greta.run(sub, q, noBudget)
      require(!r.dnf, s"GRETA did not finish substream $k")
      val maxAbs = sub.iterator.map(e => math.abs(e.value)).maxOption.getOrElse(0.0)
      val sumTol = if (r.agg.countE.isInfinite) Double.NaN else 1e-9 * r.agg.countE * maxAbs
      k -> Want(r.agg.count, r.agg.countE, r.agg.sum, sumTol, r.agg.min, r.agg.max, 1e-9)
    }.toMap

  /** The rows each micro-batch must emit in Update mode: micro-batch `b`
    * updates every substream with an event in `b`, to the aggregate of that
    * substream's events up to the end of `b`, as the SASE two-step
    * construction computes it. `batchOf(i)` is the micro-batch of event `i`. */
  def saseByBatch(evs: Array[Ev], subs: Map[Key, Array[Int]], batchOf: Int => Int,
                  batches: Int, q: TrendQuery): Array[Map[Key, Want]] = {
    val out = Array.fill(batches)(mutable.HashMap.empty[Key, Want])
    for ((k, idx) <- subs) {
      val sub = idx.map(evs).toIndexedSeq
      var j = 0
      while (j < idx.length) {
        val b = batchOf(idx(j))
        while (j < idx.length && batchOf(idx(j)) == b) j += 1
        val prefix = sub.take(j)
        val r = Sase.run(prefix, q, noBudget)
        require(!r.dnf, s"SASE did not finish substream $k")
        val maxAbs = prefix.iterator.map(e => math.abs(e.value)).max
        out(b)(k) = Want(r.agg.count, r.agg.countE, r.agg.sum, 1e-9 * r.agg.countE * maxAbs,
                         r.agg.min, r.agg.max, 0.0)
      }
    }
    out.map(_.toMap)
  }

  /** Why a row differs from what it must hold, if it does. */
  def mismatch(r: WinResult, w: Want): Option[String] = {
    def same(got: Double, want: Double): Boolean =
      if (w.countRel == 0 || got.isInfinite || want.isInfinite) got == want
      else math.abs(got - want) <= w.countRel * math.max(1.0, math.abs(want))
    if (!same(r.count, w.count)) Some(s"count ${r.count} != ${w.count}")
    else if (!same(r.countE, w.countE)) Some(s"countE ${r.countE} != ${w.countE}")
    else if (!w.sumTol.isNaN && !(math.abs(r.sum - w.sum) <= w.sumTol))
      Some(s"sum ${r.sum} != ${w.sum} (tolerance ${w.sumTol})")
    else if (r.min != w.min) Some(s"min ${r.min} != ${w.min}")
    else if (r.max != w.max) Some(s"max ${r.max} != ${w.max}")
    else None
  }

  /** Every difference between an operation's rows and the expected rows:
    * a wrong row, a duplicate, an unexpected or a missing (group, window).
    * Empty when they agree. */
  def compare(got: Iterable[WinResult], want: Map[Key, Want]): Vector[String] = {
    val seen = mutable.HashSet.empty[Key]
    val problems = Vector.newBuilder[String]
    for (r <- got) {
      val k = (r.group, r.wid)
      if (!seen.add(k)) problems += s"$k: duplicate row"
      else want.get(k) match {
        case None    => problems += s"$k: unexpected row"
        case Some(w) => mismatch(r, w).foreach(m => problems += s"$k: $m")
      }
    }
    for (k <- want.keysIterator if !seen(k)) problems += s"$k: missing row"
    problems.result()
  }

  private def parallel[A, B](xs: Seq[A], threads: Int)(f: A => B): Seq[B] = {
    val pool = Executors.newFixedThreadPool(threads)
    implicit val ec: ExecutionContext = ExecutionContext.fromExecutor(pool)
    try Await.result(Future.traverse(xs)(x => Future(f(x))), Duration.Inf)
    finally { pool.shutdown(); pool.awaitTermination(1, TimeUnit.MINUTES) }
  }
}
