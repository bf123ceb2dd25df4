package perfbench

import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import org.apache.spark.sql.streaming.StreamingQueryProgress
import org.apache.spark.sql.{Dataset, SparkSession}
import org.apache.spark.storage.StorageLevel
import repro.core.Pattern._
import repro.core._
import repro.streams.EventGen

import java.io.File
import java.nio.charset.StandardCharsets.UTF_8
import scala.collection.mutable

/** What one run hands back to [[Main]]: the operations it checked and the
  * metrics it measured, by name. */
final case class Outcome(correct: Boolean, attempted: Int, failed: Int, metrics: Map[String, Double])

/** Everything a workload run shares. */
final class Env(val spark: SparkSession, val opts: Options) {
  val tracer = new Tracer
  val listener = new StageListener(spark.sparkContext)
  private var warmupWrong = false
  private var attempted, failed = 0
  private var referenceNs = 0L
  private var setup = Double.NaN

  /** Runs a reference computation or a check, whose time is not set-up. */
  def reference[T](body: => T): T = {
    val t0 = System.nanoTime()
    try body finally referenceNs += System.nanoTime() - t0
  }

  /** Called as each timed operation starts. The first call fixes `setupS`. */
  def timedOpStarts(): Unit =
    if (setup.isNaN) setup = (System.currentTimeMillis() - Main.startMs) / 1000.0 - referenceNs / 1e9

  /** Wall time from JVM start to the first timed operation, less the time
    * spent on references and checks. */
  def setupS: Double = setup

  /** Checks one operation; problems found in an untimed warm-up operation
    * make the whole run incorrect. */
  def checked(check: => Seq[String], timed: Boolean, what: => String): Unit = {
    val problems = reference(check)
    if (problems.nonEmpty)
      Console.err.println(s"[perfbench] $what: ${problems.size} wrong rows, e.g. ${problems.take(3).mkString("; ")}")
    if (timed) { attempted += 1; if (problems.nonEmpty) failed += 1 }
    else if (problems.nonEmpty) warmupWrong = true
  }

  /** A progress line on standard error, stamped with seconds since start. */
  def log(msg: String): Unit =
    Console.err.println(f"[perfbench ${(System.currentTimeMillis() - Main.startMs) / 1000.0}%7.2f s] $msg")

  def outcome(metrics: Map[String, Double]): Outcome =
    Outcome(!warmupWrong, attempted, failed, metrics)
}

trait Workload {
  def name: String
  def run(env: Env): Outcome
}

object Workloads {
  val all: Seq[Workload] = Seq(
    // Type-grained (Alg. 1): the core costs about 100 ns per event, so
    // window replication, the shuffle, grouping and the per-window sort
    // carry the time. Windows of 400 hold ~16 A events per group, so every COUNT(*)
    // stays far below 2^53 and the closed form compares exactly.
    BatchWorkload("any_type_batch", events = 500000, WindowSpec(400, 200), Nil, warmupOps = 3),
    // Mixed-grained (Alg. 2): `A < NEXT(A)` makes every event scan the
    // stored A events, O(n * n_e) per window, which carries the time.
    BatchWorkload("any_mixed_batch", events = 90000, WindowSpec(30000, 15000),
      Seq(AdjPred.Cmp("A", "A", "<")), warmupOps = 2),
    // Pattern-grained (Alg. 3) in micro-batches: two aggregates per
    // substream, so planning, the shuffle and the state store carry the time.
    StreamWorkload("next_stream", batchEvents = 5000, warmupBatches = 3, timedBatches = 6,
      WindowSpec(600, 300)))

  def byName(n: String): Workload = all.find(_.name == n).getOrElse(
    throw new IllegalArgumentException(s"unknown workload $n; known: ${all.map(_.name).mkString(", ")}"))

  def seconds(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  /** Replays every substream, windowed by `WindowSpec.windowsOf`, through
    * `Cogra.aggregator(q).onEvent` on one thread: the core's own cost. */
  def coreReplay(env: Env, evs: Array[Ev], q: TrendQuery): Unit = {
    val subs = mutable.HashMap.empty[(String, Long), mutable.ArrayBuffer[Ev]]
    for (e <- evs)
      q.window.windowsOf(e.time).foreach(w => subs.getOrElseUpdate((e.group, w), mutable.ArrayBuffer.empty) += e)
    // Each substream gets fresh copies of its events, strings included,
    // allocated together, as a Spark task deserializes a group's rows before
    // the core sees them. Replaying the collected events in place would time
    // cache misses on objects spread over the whole input instead of the core.
    def fresh(s: String) = new String(s.getBytes(UTF_8), UTF_8)
    val streams = subs.valuesIterator.map(_.iterator.map(e =>
      e.copy(etype = fresh(e.etype), group = fresh(e.group))).toArray).toArray
    val events = streams.iterator.map(_.length.toLong).sum
    // Moves the copies out of the young generation, so that no replay pays
    // for copying them in its first collection.
    System.gc()
    // Five replays; the median one counts.
    for (_ <- 1 to 5) {
      var peak = 0L
      var countSum = 0.0
      val t0 = System.nanoTime()
      for (s <- streams) {
        val a = Cogra.aggregator(q)
        var i = 0
        while (i < s.length) { a.onEvent(s(i)); i += 1 }
        countSum += a.result.count
        peak += a.peakUnits
      }
      env.tracer.record("core.replay", 0, t0, System.nanoTime(), Map(
        "events" -> events.toDouble, "substreams" -> streams.length.toDouble,
        "peak_units" -> peak.toDouble, "count_sum" -> countSum))
    }
  }

  /** Per-layer metrics every workload reports; a layer the workload does not
    * use reads 0. */
  def layerMetrics(env: Env, tracedMs: Seq[Double],
                   untracedMs: Seq[Double], stream: Map[String, Double]): Map[String, Double] = {
    val t = env.tracer
    val ops = t.named("op").filter(_.attr("traced") == 1.0)
    def perOp(f: Seq[Span] => Double): Double = Stats.median(ops.map(op => f(t.childrenOf(op.id))))
    def sum(stages: Seq[Span], k: String, map: Option[Boolean] = None): Double =
      stages.filter(s => map.forall(m => (s.attr("shuffle_map") == 1.0) == m)).map(_.attr(k)).sum
    val core = t.named("core.replay").sortBy(_.ms).apply(2)
    Map(
      "eventgen.s" -> Stats.median(t.named("eventgen").map(_.ms / 1000)),
      "shuffle.records_per_event" -> Stats.median(ops.map(op =>
        sum(t.childrenOf(op.id), "write_records") / op.attr("events"))),
      "shuffle.bytes" -> perOp(sum(_, "write_bytes")),
      "shuffle.write_ms" -> perOp(sum(_, "write_ns") / 1e6),
      "stage.map_task_s" -> perOp(sum(_, "task_ms", Some(true)) / 1000),
      "stage.reduce_task_s" -> perOp(sum(_, "task_ms", Some(false)) / 1000),
      "shuffle.fetch_wait_ms" -> perOp(sum(_, "fetch_wait_ms")),
      "spark.cpu_s" -> perOp(sum(_, "cpu_ns") / 1e9),
      "spark.gc_s" -> perOp(sum(_, "gc_ms") / 1000),
      "spark.task_skew" -> perOp { st =>
        st.filter(_.attr("shuffle_map") == 0.0).maxByOption(_.attr("task_ms"))
          .map(s => s.attr("max_task_ms") / math.max(1.0, s.attr("median_task_ms"))).getOrElse(0.0)
      },
      "core.ns_per_event" -> (core.endNs - core.startNs) / core.attr("events"),
      "core.s" -> core.ms / 1000,
      "core.peak_units" -> core.attr("peak_units"),
      "core.substreams" -> core.attr("substreams"),
      "trace.overhead_pct" -> (Stats.median(tracedMs) / Stats.median(untracedMs) - 1) * 100,
    ) ++ Seq("stream.add_batch_ms_p50", "stream.wal_commit_ms_p50", "stream.commit_offsets_ms_p50",
             "stream.state_commit_ms_p50", "stream.state_rows", "stream.state_rows_updated",
             "stream.state_mb").map(k => k -> stream.getOrElse(k, 0.0))
  }
}

/** `CograBatch.run` of `SEQ(A+, B)` under ANY, target B, on the stock stream
  * with 19 groups, cached before timing. Each timed operation is one
  * collected query. */
final case class BatchWorkload(name: String, events: Long, window: WindowSpec, preds: Seq[AdjPred],
                               warmupOps: Int) extends Workload {
  import Workloads._

  val query: TrendQuery = TrendQuery(seq(plus(tp("A")), tp("B")), Semantics.ANY, preds, Some("B"), window)
  val minOps = 3

  def run(env: Env): Outcome = {
    val spark = env.spark
    val (input, gen) = env.tracer.span("eventgen") {
      val ds = EventGen.stock(spark, events, 19, seed = env.opts.seed).persist(StorageLevel.MEMORY_ONLY)
      ds.count()
      ds
    }
    env.log(f"generated $events events in ${gen.ms / 1000}%.2f s")
    // Reference results: computed once, not timed, not part of set-up.
    val (evs, subs, want) = env.reference {
      val evs = input.collect().sorted(Ev.ordering)
      val subs = Checks.substreams(evs, window.size, window.slide)
      (evs, subs, if (preds.isEmpty) Checks.typeClosedForms(evs, subs)
                  else Checks.greta(evs, subs, query, env.opts.threads))
    }

    def op(i: Int, timed: Boolean, traced: Boolean): Double = {
      val t0 = System.nanoTime()
      val (rows, tasks, stages) =
        if (traced) env.listener.capture(CograBatch.run(spark, input, query).collect())
        else (CograBatch.run(spark, input, query).collect(), Nil, Nil)
      val t1 = System.nanoTime()
      val span = env.tracer.record("op", 0, t0, t1,
        Map("traced" -> (if (traced) 1.0 else 0.0), "events" -> events.toDouble))
      StageListener.recordStages(env.tracer, span.id, tasks, stages)
      env.checked(Checks.compare(rows, want), timed, s"$name query $i")
      (t1 - t0) / 1e6
    }

    env.log(s"reference for ${want.size} substreams")
    (0 until warmupOps).foreach(i => op(i, timed = false, traced = false))

    // Closed loop, one caller; a traced run alternates untraced and traced.
    val (plain, traced) = (mutable.ArrayBuffer.empty[Double], mutable.ArrayBuffer.empty[Double])
    val start = System.nanoTime()
    var i = 0
    while (i < minOps || seconds(start) < env.opts.seconds) {
      val tr = env.opts.trace && i % 2 == 1
      env.timedOpStarts()
      (if (tr) traced else plain) += op(warmupOps + i, timed = true, traced = tr)
      i += 1
    }
    val p50 = Stats.median(plain.toSeq)
    env.log(s"timed ${plain.size} untraced, ${traced.size} traced queries: ${plain.map(m => f"$m%.0f").mkString(" ")} ms")
    if (!env.opts.trace)
      env.outcome(Map("setup_s" -> env.setupS, "events_per_s" -> events / (p50 / 1000),
                      "latency_ms_p50" -> p50))
    else {
      coreReplay(env, evs, query)
      env.log("core replay done")
      env.outcome(layerMetrics(env, traced.toSeq, plain.toSeq, Map.empty))
    }
  }
}

/** `CograStream.run` of `(SEQ(A+, B))+` under NEXT on the transport stream
  * with 30 groups, fed through a `MemoryStream` in fixed-size micro-batches;
  * each is added and drained before the next. A round is one streaming
  * query over the whole input: untimed warm-up batches, then the timed ones.
  * Each timed micro-batch is one operation. */
final case class StreamWorkload(name: String, batchEvents: Int, warmupBatches: Int,
                                timedBatches: Int, window: WindowSpec) extends Workload {
  import StreamWorkload.Round
  import Workloads._

  val query: TrendQuery =
    TrendQuery(plus(seq(plus(tp("A")), tp("B"))), Semantics.NEXT, Nil, Some("B"), window)
  val batches: Int = warmupBatches + timedBatches

  def run(env: Env): Outcome = {
    val spark = env.spark
    import spark.implicits._
    val (evs, gen) = env.tracer.span("eventgen") {
      EventGen.transport(spark, batchEvents.toLong * batches, 30, seed = env.opts.seed).collect().sorted(Ev.ordering)
    }
    val chunks = evs.grouped(batchEvents).toArray
    env.log(f"generated ${evs.length} events in ${gen.ms / 1000}%.2f s")
    // Reference results: computed once, not timed, not part of set-up.
    val (subs, wantByBatch, wantFinal) = env.reference {
      val subs = Checks.substreams(evs, window.size, window.slide)
      (subs, Checks.saseByBatch(evs, subs, _ / batchEvents, batches, query),
       CograBatch.run(spark, evs.toSeq.toDS(), query).collect().map(r => (r.group, r.wid) -> Want.of(r)).toMap)
    }

    env.log(s"reference for ${subs.size} substreams")
    // Whole rounds until the run has measured for its seconds.
    val rounds = mutable.ArrayBuffer.empty[Round]
    while (rounds.isEmpty || seconds(rounds.head.timedStartNs) < env.opts.seconds)
      rounds += runRound(env, rounds.size, chunks, wantByBatch, wantFinal)
    rounds.foreach(r => env.log(f"round: warm-up ${r.warmupS}%.2f s, untraced batches " +
      f"${r.plainMs.map(m => f"$m%.0f").mkString(" ")} ms, traced ${r.tracedMs.map(m => f"$m%.0f").mkString(" ")} ms, " +
      f"state ${r.stateRows}%.0f rows ${r.stateMb}%.2f MB"))
    val plainMs = rounds.flatMap(_.plainMs).toSeq
    if (!env.opts.trace)
      env.outcome(Map(
        "setup_s" -> env.setupS,
        "events_per_s" -> plainMs.size * batchEvents / (plainMs.sum / 1000),
        "latency_ms_p50" -> Stats.median(plainMs)))
    else {
      coreReplay(env, evs, query)
      env.log("core replay done")
      val parts = env.tracer.named("stream.progress")
      def p50(k: String) = Stats.median(parts.map(_.attr(k)))
      val stream = Map(
        "stream.add_batch_ms_p50" -> p50("addBatch"),
        "stream.wal_commit_ms_p50" -> p50("walCommit"),
        "stream.commit_offsets_ms_p50" -> p50("commitOffsets"),
        "stream.state_commit_ms_p50" -> p50("state_commit_ms"),
        "stream.state_rows" -> Stats.median(rounds.map(_.stateRows).toSeq),
        "stream.state_rows_updated" -> p50("state_rows_updated"),
        "stream.state_mb" -> Stats.median(rounds.map(_.stateMb).toSeq))
      env.outcome(layerMetrics(env, rounds.flatMap(_.tracedMs).toSeq, plainMs, stream))
    }
  }

  private def runRound(env: Env, n: Int, chunks: Array[Array[Ev]], wantByBatch: Array[Map[Checks.Key, Want]],
                       wantFinal: Map[Checks.Key, Want]): Round = {
    val spark = env.spark
    import spark.implicits._
    implicit val sqlCtx: org.apache.spark.sql.SQLContext = spark.sqlContext
    val checkpoint = new File(env.opts.workDir, s"checkpoint-$n")
    val emitted = mutable.HashMap.empty[Long, Array[WinResult]]
    val sink: (Dataset[WinResult], Long) => Unit = (df, id) => {
      val rows = df.collect()
      emitted.synchronized { emitted(id) = rows }
    }
    val t0 = System.nanoTime()
    val input = MemoryStream[Ev]
    val q = CograStream.run(spark, input.toDS(), query).writeStream
      .outputMode("update").option("checkpointLocation", checkpoint.getPath)
      .foreachBatch(sink).start()
    val spans = mutable.ArrayBuffer.empty[Span]
    try {
      var warmupEnd = 0L
      val problems = Array.fill(chunks.length)(Vector.empty[String])
      for (b <- chunks.indices) {
        val timed = b >= warmupBatches
        if (b == warmupBatches) { env.timedOpStarts(); warmupEnd = System.nanoTime() }
        // A traced run alternates untraced and traced micro-batches.
        val tr = env.opts.trace && timed && (b - warmupBatches) % 2 == 1
        val s0 = System.nanoTime()
        val (_, tasks, stages) =
          if (tr) env.listener.capture { input.addData(chunks(b).toSeq); q.processAllAvailable() }
          else { input.addData(chunks(b).toSeq); q.processAllAvailable(); ((), Nil, Nil) }
        val s1 = System.nanoTime()
        if (timed) {
          val span = env.tracer.record("op", 0, s0, s1, Map("traced" -> (if (tr) 1.0 else 0.0),
            "events" -> chunks(b).length.toDouble, "batch" -> b.toDouble))
          StageListener.recordStages(env.tracer, span.id, tasks, stages)
          spans += span
        }
        env.reference(emitted.synchronized {
          if (emitted.keySet != (0L to b).toSet)
            problems(b) :+= s"micro-batch ids ${emitted.keys.toSeq.sorted} after adding batch $b"
          val rows: Seq[WinResult] = emitted.get(b.toLong).toSeq.flatten
          problems(b) ++= Checks.compare(rows, wantByBatch(b))
        })
      }
      // The last row of every (group, window) must equal the batch result; a
      // wrong one fails the micro-batch that emitted it.
      val last = mutable.HashMap.empty[Checks.Key, (Int, WinResult)]
      for ((b, rows) <- emitted.toSeq.sortBy(_._1); r <- rows) last((r.group, r.wid)) = (b.toInt, r)
      for ((k, (b, r)) <- last) wantFinal.get(k) match {
        case None    => problems(b) :+= s"final $k: unexpected row"
        case Some(w) => Checks.mismatch(r, w).foreach(m => problems(b) :+= s"final $k: $m")
      }
      for (k <- wantFinal.keysIterator if !last.contains(k)) problems(chunks.length - 1) :+= s"final $k: missing row"
      for (b <- chunks.indices)
        env.checked(problems(b), timed = b >= warmupBatches, s"$name round $n batch $b")

      val progress = awaitProgress(q, chunks.length - 1L)
      val byBatch = progress.map(p => p.batchId -> p).toMap
      val state = byBatch(chunks.length - 1L).stateOperators.head
      val (tracedSpans, plainSpans) = spans.toSeq.partition(_.attr("traced") == 1.0)
      // Progress parts of each traced micro-batch, as child spans of its op.
      tracedSpans.foreach { s =>
        val p = byBatch(s.attr("batch").toLong)
        val d = p.durationMs
        val st = p.stateOperators.head
        env.tracer.record("stream.progress", s.id, s.startNs, s.endNs, Map(
          "addBatch" -> d.getOrDefault("addBatch", 0L).toDouble,
          "walCommit" -> d.getOrDefault("walCommit", 0L).toDouble,
          "commitOffsets" -> d.getOrDefault("commitOffsets", 0L).toDouble,
          "state_commit_ms" -> st.commitTimeMs.toDouble,
          "state_rows_updated" -> st.numRowsUpdated.toDouble))
      }
      Round((warmupEnd - t0) / 1e9, warmupEnd, plainSpans.map(_.ms), tracedSpans.map(_.ms),
            state.numRowsTotal.toDouble, state.memoryUsedBytes / 1e6)
    } finally {
      q.stop()
      deleteTree(checkpoint)
    }
  }

  private def awaitProgress(q: org.apache.spark.sql.streaming.StreamingQuery, lastId: Long): Seq[StreamingQueryProgress] = {
    val deadline = System.currentTimeMillis() + 30000L
    while (!q.recentProgress.exists(_.batchId == lastId)) {
      require(System.currentTimeMillis() < deadline, s"no progress reported for batch $lastId")
      Thread.sleep(5)
    }
    q.recentProgress.toSeq
  }

  private def deleteTree(f: File): Unit = {
    Option(f.listFiles).foreach(_.foreach(deleteTree))
    f.delete()
  }
}

object StreamWorkload {
  /** One streaming query over the whole input; `timedStartNs` is when its
    * first timed micro-batch began. */
  final case class Round(warmupS: Double, timedStartNs: Long, plainMs: Seq[Double],
                         tracedMs: Seq[Double], stateRows: Double, stateMb: Double)
}
